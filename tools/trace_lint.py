#!/usr/bin/env python3
"""Lints the observability surface of a live webdex_cli binary.

Checks (docs/OBSERVABILITY.md):
  * every metric name the binary exposes obeys the documented grammar
      name    := segment ('.' segment)+      -- at least two segments
      segment := [a-z0-9_]+                  -- first segment starts [a-z]
  * the Prometheus exposition is consistent with the JSON dump: every
    counter/gauge appears as webdex_<dots-to-underscores> with the same
    value, every histogram emits _bucket{le=...}/_sum/_count lines;
  * a one-shot trace emits well-formed JSONL: ordinal ids, parents that
    precede their children, end >= start, non-negative `usd` attrs, and
    parent usd covering the sum of its children's;
  * every `attempt.*` span of the one retry loop carries an `attempt`
    attr >= 1, and a span with `attempt` = n > 1 has an earlier sibling
    of the same name with `attempt` = n - 1 (a retry follows the try
    it retries, under the same parent);
  * in the one-shot trace every `query` task span carries `delivery` and
    `query_id`, and its last child is the `attempt.qp.ack` span: the task
    is acknowledged inside its own span;
  * a scripted mutable-corpus session (upsert + delete + compact --full,
    docs/MUTABILITY.md) emits a `compact.pass` span whose JSONL obeys the
    same invariants — in particular the pass's usd covers the billed sum
    of its child retry spans — on the paper's layout and on a 4-shard
    replicated one, where the pass must also hold `shard.fanout` scans;
  * every `admission.*` / `autoscale.*` span obeys the overload taxonomy
    (docs/OVERLOAD.md): only the documented names, each with its required
    attrs, `admission.shed` spans never billed (shed queries do no loser
    work), `autoscale.scale` spans carrying the capacity move — and the
    generic parent-covers-children usd invariant applies to them like any
    other span;
  * an autoscaled scripted session reports the overload counters in
    `stats` with the provisioned capacity held inside the configured
    bounds, and exposes the `autoscale.*` gauges in the metrics dump;
  * every `replica.*` / `shard.*` / `deploy.*` span obeys the deployment
    taxonomy (docs/ARCHITECTURES.md): only the documented names, each
    with its required attrs;
  * a sharded + replicated scripted session exposes the `deploy.*`
    gauges, the per-shard `service.<svc>.<op>.s<shard>.count` counters,
    the replica read pool's `usage.replica_reads` gauge and its
    `replica.lag_us` histogram, records at least
    one replica.read span in a traced query, and reports the deployment
    line in `stats`;
  * a scripted `strategy 2LUPI` / `planner off` session (docs/PLANNER.md)
    runs its traced query as a one-candidate plan: one `plan` span, one
    billed `path.2LUPI` span (the Figure 5 semijoin) covering its retry
    attempts' usd, and an EXPLAIN that shows the plan that ran.

Usage: trace_lint.py <path-to-webdex_cli>
Exit code 0 on a clean lint; failures are listed on stderr.
"""

import json
import re
import subprocess
import sys
import tempfile

METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
QUERY = "//item[/name:val]"

# The overload span taxonomy (docs/OVERLOAD.md): span name -> attrs it
# must carry.  Any other admission.*/autoscale.* name is a lint failure —
# new overload spans must be documented here and in OVERLOAD.md.
OVERLOAD_SPANS = {
    "admission.shed": {"query_id", "waited_us"},
    "autoscale.scale": {
        "write_units_before",
        "read_units_before",
        "write_units",
        "read_units",
        "up",
    },
}

# The deployment span taxonomy (docs/ARCHITECTURES.md): span name ->
# attrs it must carry.  Any other replica.*/shard.*/deploy.* name is a
# lint failure — new deployment spans must be documented here and in
# ARCHITECTURES.md.
DEPLOY_SPANS = {
    "replica.read": {"replica"},
    "shard.fanout": {"shards"},
}

errors = []


def fail(msg):
    errors.append(msg)


def run(binary, *args):
    result = subprocess.run(
        [binary, *args], capture_output=True, text=True, timeout=300
    )
    if result.returncode != 0:
        sys.stderr.write(result.stdout + result.stderr)
        sys.exit(f"{' '.join(args)}: exit {result.returncode}")
    return result.stdout


def lint_names(dump):
    names = (
        list(dump["counters"])
        + list(dump["gauges"])
        + list(dump["histograms"])
    )
    if not names:
        fail("metrics dump is empty")
    for name in names:
        if not METRIC_NAME.match(name):
            fail(f"metric name violates the grammar: {name!r}")
    return names


def lint_prometheus(dump, text):
    lines = [l for l in text.splitlines() if l.startswith("webdex_")]
    if not lines:
        fail("no webdex_-prefixed lines in the Prometheus exposition")
    body = "\n".join(lines)
    for name, value in dump["counters"].items():
        prom = "webdex_" + name.replace(".", "_")
        if not re.search(rf"^{re.escape(prom)} {value}$", body, re.M):
            fail(f"counter {name} missing from Prometheus as '{prom} {value}'")
    for name in dump["gauges"]:
        prom = "webdex_" + name.replace(".", "_")
        if not re.search(rf"^{re.escape(prom)} ", body, re.M):
            fail(f"gauge {name} missing from Prometheus as '{prom}'")
    for name, h in dump["histograms"].items():
        prom = "webdex_" + name.replace(".", "_")
        for suffix in ("_bucket{le=", "_sum", "_count"):
            if prom + suffix not in body:
                fail(f"histogram {name} missing Prometheus '{prom}{suffix}'")
        if not re.search(rf"^{re.escape(prom)}_count {h['count']}$", body, re.M):
            fail(f"histogram {name} count mismatch in Prometheus")


def lint_overload_span(span):
    """Validates one admission.*/autoscale.* span against the taxonomy."""
    name = span["name"]
    attrs = span.get("attrs", {})
    required = OVERLOAD_SPANS.get(name)
    if required is None:
        fail(f"span name outside the overload taxonomy: {name!r}")
        return
    for key in sorted(required - set(attrs)):
        fail(f"{name} span {span['id']} missing required attr {key!r}")
    if name == "admission.shed":
        # Shedding is the whole point of not doing the work: a shed span
        # that billed anything charged for loser work.
        if attrs.get("usd", 0.0) != 0.0:
            fail(f"admission.shed span {span['id']} billed usd > 0")
        if attrs.get("waited_us", 0) < 0:
            fail(f"admission.shed span {span['id']} waited_us is negative")
    elif name == "autoscale.scale":
        if attrs.get("up") not in (0, 1):
            fail(f"autoscale.scale span {span['id']} attr up not in {{0,1}}")
        for key in ("write_units", "read_units"):
            if attrs.get(key, 0) <= 0:
                fail(f"autoscale.scale span {span['id']} has {key} <= 0")
        if (
            attrs.get("write_units") == attrs.get("write_units_before")
            and attrs.get("read_units") == attrs.get("read_units_before")
        ):
            fail(f"autoscale.scale span {span['id']} moved no capacity")


def lint_deploy_span(span):
    """Validates one replica.*/shard.*/deploy.* span against the taxonomy."""
    name = span["name"]
    attrs = span.get("attrs", {})
    required = DEPLOY_SPANS.get(name)
    if required is None:
        fail(f"span name outside the deployment taxonomy: {name!r}")
        return
    for key in sorted(required - set(attrs)):
        fail(f"{name} span {span['id']} missing required attr {key!r}")
    if name == "replica.read":
        if attrs.get("replica", -1) < 0:
            fail(f"replica.read span {span['id']} has replica < 0")
        if attrs.get("lag_us", 0) < 0:
            fail(f"replica.read span {span['id']} has lag_us < 0")
    elif name == "shard.fanout":
        if attrs.get("shards", 0) < 2:
            fail(f"shard.fanout span {span['id']} fans out to < 2 shards")


def lint_attempt_span(span, latest_attempt):
    """An `attempt.*` span numbers its try from 1, and try n > 1 follows
    an earlier sibling of the same name numbered n - 1.  `latest_attempt`
    maps (parent, name) to the number of the latest such sibling seen."""
    sid = span["id"]
    attempt = span.get("attrs", {}).get("attempt")
    if attempt is None or attempt < 1:
        fail(f"span {sid} ({span['name']}) has attempt attr {attempt!r}")
        return
    key = (span["parent"], span["name"])
    if attempt > 1 and latest_attempt.get(key) != attempt - 1:
        fail(
            f"span {sid} ({span['name']}) is attempt {attempt:g} without an "
            f"earlier sibling attempt {attempt - 1:g}"
        )
    latest_attempt[key] = attempt


def lint_trace_jsonl(path, label="trace"):
    with open(path) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    if not spans:
        fail(f"{label} JSONL is empty")
        return spans
    usd = {}
    child_usd = {}
    latest_attempt = {}
    for ordinal, span in enumerate(spans, start=1):
        sid = span["id"]
        if sid != ordinal:
            fail(f"span ids are not creation ordinals: got {sid} at {ordinal}")
        if span["parent"] >= sid:
            fail(f"span {sid} has non-preceding parent {span['parent']}")
        if span["end_us"] < span["start_us"]:
            fail(f"span {sid} ({span['name']}) ends before it starts")
        attrs = span.get("attrs", {})
        usd[sid] = attrs.get("usd", 0.0)
        if usd[sid] < 0:
            fail(f"span {sid} ({span['name']}) has negative usd")
        for key in attrs:
            if key.startswith("usage.") and not METRIC_NAME.match(key):
                fail(f"span {sid} usage attr violates the grammar: {key!r}")
        if span["name"].startswith(("admission.", "autoscale.")):
            lint_overload_span(span)
        if span["name"].startswith(("replica.", "shard.", "deploy.")):
            lint_deploy_span(span)
        if span["name"].startswith("attempt."):
            lint_attempt_span(span, latest_attempt)
        child_usd[span["parent"]] = child_usd.get(span["parent"], 0.0) + usd[sid]
    for span in spans:
        sid = span["id"]
        if sid in child_usd and usd[sid] + 1e-12 < child_usd[sid]:
            if span["name"] == "replica.read":
                # The one documented exception to parent-covers-children:
                # the read pool refunds half the read units *inside* the
                # replica.read span, below its fully-billed retry children
                # (docs/ARCHITECTURES.md).  The refund is at most half, so
                # the span still covers half its children's sum — and its
                # ancestors see the refunded delta, keeping them covered.
                if usd[sid] + 1e-12 < 0.5 * child_usd[sid]:
                    fail(
                        f"replica.read span {sid} usd {usd[sid]} refunds "
                        f"more than half its children's {child_usd[sid]}"
                    )
                continue
            fail(
                f"span {sid} ({span['name']}) usd {usd[sid]} smaller than "
                f"its children's sum {child_usd[sid]}"
            )
    return spans


def lint_task_spans(spans):
    """Pins the shape of each `query` task span: its `delivery` and
    `query_id` attrs, and the ack as its last child."""
    tasks = [s for s in spans if s["name"] == "query"]
    if not tasks:
        fail("one-shot trace has no query task span")
    for task in tasks:
        attrs = task.get("attrs", {})
        for key in ("delivery", "query_id"):
            if key not in attrs:
                fail(f"query span {task['id']} missing required attr {key!r}")
        children = [s for s in spans if s["parent"] == task["id"]]
        last = children[-1]["name"] if children else None
        if last != "attempt.qp.ack":
            fail(
                f"query span {task['id']} ends with child {last!r}, "
                "expected 'attempt.qp.ack'"
            )


def lint_compact_trace(binary, arch=""):
    """Drives a mutable-corpus script session on the deployment `arch`
    (arguments of the CLI `arch` command; empty = the paper's layout) and
    lints the compact.pass span: present, billed (positive usd), and
    obeying the generic parent-covers-children usd invariant like every
    other span.  On a sharded layout the pass runs through the shard
    router, so its subtree must hold shard.fanout scans."""
    with tempfile.NamedTemporaryFile(
        suffix=".jsonl"
    ) as jsonl, tempfile.NamedTemporaryFile(
        mode="w", suffix=".webdex"
    ) as script:
        script.write(
            (f"arch {arch}\n" if arch else "")
            + "strategy 2LUPI\n"
            "open\n"
            "gen 12 8\n"
            "index\n"
            "upsert xmark-000003.xml\n"
            "delete xmark-000005.xml\n"
            "index\n"
            f"compact --full --jsonl {jsonl.name}\n"
        )
        script.flush()
        run(binary, script.name)
        spans = lint_trace_jsonl(jsonl.name, label="compact trace")
    passes = [s for s in spans if s["name"] == "compact.pass"]
    if len(passes) != 1:
        fail(f"expected exactly one compact.pass span, got {len(passes)}")
        return
    attrs = passes[0].get("attrs", {})
    if attrs.get("usd", 0.0) <= 0:
        fail("compact.pass span is unbilled (usd <= 0)")
    if attrs.get("full") != 1:
        fail("compact --full span does not carry attr full=1")
    if "--shards" in arch:
        parents = {s["id"]: s["parent"] for s in spans}

        def under_pass(sid):
            while sid in parents:
                sid = parents[sid]
                if sid == passes[0]["id"]:
                    return True
            return False

        if not any(
            s["name"] == "shard.fanout" and under_pass(s["id"]) for s in spans
        ):
            fail(f"compact.pass on 'arch {arch}' has no shard.fanout descendant")


def lint_autoscaled_session(binary):
    """Drives an autoscaled scripted session: the controller must own the
    provisioned capacity (stats reports it inside the configured bounds,
    not the store's 400 WU default), the overload counters must surface
    in `stats`, the autoscale.* gauges in the metrics dump, and any
    admission.*/autoscale.* spans in a traced query obey the taxonomy."""
    min_wu, max_wu = 5, 50
    with tempfile.NamedTemporaryFile(
        suffix=".jsonl"
    ) as jsonl, tempfile.NamedTemporaryFile(
        mode="w", suffix=".webdex"
    ) as script:
        script.write(
            f"autoscale --min {min_wu} --max {max_wu}\n"
            "strategy LUP\n"
            "open\n"
            "gen 12 8\n"
            "index\n"
            f"trace --jsonl {jsonl.name} {QUERY}\n"
            "metrics --json\n"
            "stats\n"
        )
        script.flush()
        out = run(binary, script.name)
        lint_trace_jsonl(jsonl.name, label="autoscaled trace")

    overload = re.search(
        r"overload: (\d+) throttled requests, (\d+) shed queries, "
        r"(\d+) scale events \((\d+) WU / \d+ RU provisioned\)",
        out,
    )
    if not overload:
        fail("stats is missing the overload counters line")
    else:
        provisioned_wu = int(overload.group(4))
        if not min_wu <= provisioned_wu <= max_wu:
            fail(
                f"autoscaled session provisions {provisioned_wu} WU, "
                f"outside the configured [{min_wu}, {max_wu}] bounds"
            )
    dump_lines = [
        l for l in out.splitlines() if l.startswith('{"counters"')
    ]
    if len(dump_lines) != 1:
        fail("autoscaled session metrics dump missing")
        return
    gauges = json.loads(dump_lines[0])["gauges"]
    for gauge in ("autoscale.write_units", "autoscale.read_units"):
        if gauge not in gauges:
            fail(f"autoscaled session does not expose gauge {gauge}")
    wu = gauges.get("autoscale.write_units", 0)
    if not min_wu <= wu <= max_wu:
        fail(f"gauge autoscale.write_units {wu} outside bounds")


def lint_sharded_session(binary):
    """Drives a sharded + replicated scripted session: the deploy gauges,
    per-shard service counters, the replica-read usage gauge and lag
    histogram
    must surface in the metrics dump, a traced query must record at least
    one taxonomy-clean replica.read span (the 1 ms lag leaves the pool
    caught up by query time), and `stats` must report the deployment."""
    with tempfile.NamedTemporaryFile(
        suffix=".jsonl"
    ) as jsonl, tempfile.NamedTemporaryFile(
        mode="w", suffix=".webdex"
    ) as script:
        script.write(
            "arch --shards 4 --replicas 2 --lag-ms 1\n"
            "strategy LUP\n"
            "open\n"
            "gen 12 8\n"
            "index\n"
            f"trace --jsonl {jsonl.name} {QUERY}\n"
            "metrics --json\n"
            "stats\n"
        )
        script.flush()
        out = run(binary, script.name)
        spans = lint_trace_jsonl(jsonl.name, label="sharded trace")

    if not any(s["name"] == "replica.read" for s in spans):
        fail("sharded session trace recorded no replica.read span")

    if not re.search(
        r"deployment: prov-s4-r2 \(4 shard\(s\), 2 replica\(s\), "
        r"provisioned capacity",
        out,
    ):
        fail("stats is missing the deployment line")

    dump_lines = [l for l in out.splitlines() if l.startswith('{"counters"')]
    if len(dump_lines) != 1:
        fail("sharded session metrics dump missing")
        return
    dump = json.loads(dump_lines[0])
    lint_names(dump)
    gauges = dump["gauges"]
    for gauge, expected in (
        ("deploy.shards", 4),
        ("deploy.replicas", 2),
        ("deploy.ondemand", 0),
        ("deploy.replication_lag_us", 1000),
    ):
        if gauges.get(gauge) != expected:
            fail(
                f"sharded session gauge {gauge} is "
                f"{gauges.get(gauge)!r}, expected {expected}"
            )
    if gauges.get("usage.replica_reads", 0) <= 0:
        fail("sharded session gauge usage.replica_reads did not count")
    counters = dump["counters"]
    if counters.get("shard.route.count", 0) <= 0:
        fail("sharded session counter shard.route.count did not count")
    per_shard = re.compile(r"^service\.[a-z0-9_]+\.[a-z0-9_]+\.s\d+\.count$")
    if not any(per_shard.match(name) for name in counters):
        fail("sharded session exposes no per-shard service.* counters")
    if "replica.lag_us" not in dump["histograms"]:
        fail("sharded session is missing the replica.lag_us histogram")


def lint_planner_off_session(binary):
    """Drives a 2LUPI session with the planner off: the traced query must
    plan one candidate, the semijoin path, and record it as a `plan` span
    followed by a billed `path.2LUPI` span whose usd covers its children
    (the generic invariant); EXPLAIN must print the same plan."""
    with tempfile.NamedTemporaryFile(
        suffix=".jsonl"
    ) as jsonl, tempfile.NamedTemporaryFile(
        mode="w", suffix=".webdex"
    ) as script:
        script.write(
            "strategy 2LUPI\n"
            "planner off\n"
            "open\n"
            "gen 12 8\n"
            "index\n"
            f"trace --jsonl {jsonl.name} {QUERY}\n"
            f"explain {QUERY}\n"
        )
        script.flush()
        out = run(binary, script.name)
        spans = lint_trace_jsonl(jsonl.name, label="planner-off trace")

    plans = [s for s in spans if s["name"] == "plan"]
    paths = [s for s in spans if s["name"].startswith("path.")]
    if len(plans) != 1:
        fail(f"planner-off trace has {len(plans)} plan spans, expected 1")
    if [s["name"] for s in paths] != ["path.2LUPI"]:
        fail(
            "planner-off trace paths are "
            f"{[s['name'] for s in paths]}, expected ['path.2LUPI']"
        )
    elif paths[0].get("attrs", {}).get("usd", 0.0) <= 0:
        fail("path.2LUPI span is unbilled (usd <= 0)")
    elif plans and plans[0]["id"] > paths[0]["id"]:
        fail("path.2LUPI span precedes the plan span")
    if "physical: strategy 2LUPI, planner off" not in out:
        fail("planner-off EXPLAIN does not say 'planner off'")
    if "pattern 1: chose 2LUPI\n" not in out:
        fail("planner-off EXPLAIN does not choose the 2LUPI semijoin")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = sys.argv[1]

    json_out = run(binary, "metrics", QUERY, "--json")
    dump_lines = [l for l in json_out.splitlines() if l.startswith('{"counters"')]
    if len(dump_lines) != 1:
        sys.exit("could not locate the JSON metrics dump in the output")
    dump = json.loads(dump_lines[0])
    names = lint_names(dump)

    prom_out = run(binary, "metrics", QUERY, "--prometheus")
    lint_prometheus(dump, prom_out)

    with tempfile.NamedTemporaryFile(suffix=".jsonl") as tmp:
        run(binary, "trace", "--jsonl", tmp.name, QUERY)
        lint_task_spans(lint_trace_jsonl(tmp.name))

    lint_compact_trace(binary)
    lint_compact_trace(binary, arch="--shards 4 --replicas 1")
    lint_autoscaled_session(binary)
    lint_sharded_session(binary)
    lint_planner_off_session(binary)

    if errors:
        for e in errors:
            print(f"trace_lint: {e}", file=sys.stderr)
        sys.exit(1)
    print(
        f"trace_lint: {len(names)} metric names clean, trace JSONL clean, "
        "query task spans clean, compact.pass clean, autoscaled session clean, sharded session "
        "clean, planner-off session clean"
    )


if __name__ == "__main__":
    main()
