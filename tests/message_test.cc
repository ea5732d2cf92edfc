#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "engine/message.h"

namespace webdex::engine {
namespace {

TEST(LoadRequestTest, RoundTrip) {
  LoadRequest request{"xmark-000042.xml"};
  auto parsed = LoadRequest::Parse(request.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().uri, "xmark-000042.xml");
}

TEST(LoadRequestTest, UriMayContainSpaces) {
  LoadRequest request{"my docs/le déjeuner.xml"};
  auto parsed = LoadRequest::Parse(request.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().uri, "my docs/le déjeuner.xml");
}

TEST(LoadRequestTest, RejectsWrongTagAndEmptyUri) {
  EXPECT_TRUE(LoadRequest::Parse("QUERY\n1\nx").status().IsInvalidArgument());
  EXPECT_TRUE(LoadRequest::Parse("LOAD").status().IsInvalidArgument());
  EXPECT_TRUE(LoadRequest::Parse("LOAD\n").status().IsInvalidArgument());
  EXPECT_TRUE(LoadRequest::Parse("").status().IsInvalidArgument());
}

TEST(LoadRequestTest, AddSerializationIsByteStable) {
  // The mutation protocol must not disturb the original wire format:
  // redelivered pre-mutability messages still parse, and a kAdd request
  // serializes exactly as before.
  LoadRequest request{"xmark-000042.xml"};
  EXPECT_EQ(request.op, LoadOp::kAdd);
  EXPECT_EQ(request.Serialize(), "LOAD\nxmark-000042.xml");
  auto parsed = LoadRequest::Parse("LOAD\nxmark-000042.xml");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().op, LoadOp::kAdd);
  EXPECT_EQ(parsed.value().generation, 0u);
}

TEST(LoadRequestTest, UpsertRoundTrip) {
  LoadRequest request{"a b/doc.xml"};
  request.op = LoadOp::kUpsert;
  request.generation = 41;
  EXPECT_EQ(request.Serialize(), "UPSERT\n41\na b/doc.xml");
  auto parsed = LoadRequest::Parse(request.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().op, LoadOp::kUpsert);
  EXPECT_EQ(parsed.value().generation, 41u);
  EXPECT_EQ(parsed.value().uri, "a b/doc.xml");
}

TEST(LoadRequestTest, DeleteRoundTrip) {
  LoadRequest request{"doc.xml"};
  request.op = LoadOp::kDelete;
  request.generation = 7;
  auto parsed = LoadRequest::Parse(request.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().op, LoadOp::kDelete);
  EXPECT_EQ(parsed.value().generation, 7u);
  EXPECT_EQ(parsed.value().uri, "doc.xml");
}

TEST(LoadRequestTest, RejectsMalformedMutations) {
  // Mutations require a positive generation line and a URI: generation 0
  // is reserved for the static corpus and never travels on the wire.
  EXPECT_TRUE(LoadRequest::Parse("UPSERT\n1").status().IsInvalidArgument());
  EXPECT_TRUE(LoadRequest::Parse("UPSERT\n0\nx").status().IsInvalidArgument());
  EXPECT_TRUE(LoadRequest::Parse("UPSERT\n1\n").status().IsInvalidArgument());
  EXPECT_TRUE(
      LoadRequest::Parse("UPSERT\nabc\nx").status().IsInvalidArgument());
  EXPECT_TRUE(LoadRequest::Parse("DELETE\n1").status().IsInvalidArgument());
  EXPECT_TRUE(LoadRequest::Parse("DELETE\n0\nx").status().IsInvalidArgument());
  EXPECT_TRUE(LoadRequest::Parse("DELETE").status().IsInvalidArgument());
  // The generation is a strict decimal: no prefix parse, no sign, no
  // spaces, no wrap or saturation past UINT64_MAX.
  for (const char* tag : {"UPSERT", "DELETE"}) {
    for (const char* generation :
         {"12abc", "", "-3", "+3", " 3", "3 ", "0x1f",
          "18446744073709551616", "99999999999999999999999"}) {
      const std::string text = std::string(tag) + "\n" + generation + "\nu";
      EXPECT_TRUE(LoadRequest::Parse(text).status().IsInvalidArgument())
          << text;
    }
    auto max =
        LoadRequest::Parse(std::string(tag) + "\n18446744073709551615\nu");
    ASSERT_TRUE(max.ok()) << tag;
    EXPECT_EQ(max.value().generation, UINT64_MAX);
  }
}

TEST(QueryRequestTest, RoundTripPreservesMultilineQueries) {
  QueryRequest request;
  request.id = 77;
  request.query_text = "//a[/b,\n  /c]";  // queries may contain newlines
  auto parsed = QueryRequest::Parse(request.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().id, 77u);
  EXPECT_EQ(parsed.value().query_text, "//a[/b,\n  /c]");
}

TEST(QueryRequestTest, RejectsMalformed) {
  EXPECT_TRUE(QueryRequest::Parse("QUERY").status().IsInvalidArgument());
  EXPECT_TRUE(QueryRequest::Parse("QUERY\n12").status().IsInvalidArgument());
  EXPECT_TRUE(
      QueryRequest::Parse("QUERY\n12\n").status().IsInvalidArgument());
  EXPECT_TRUE(QueryRequest::Parse("LOAD\nx").status().IsInvalidArgument());
  for (const char* id : {"xyz", "12abc", "", "-1", "18446744073709551616"}) {
    const std::string id_line = std::string("\n") + id + "\n";
    EXPECT_TRUE(QueryRequest::Parse("QUERY" + id_line + "//a")
                    .status()
                    .IsInvalidArgument())
        << id;
    EXPECT_TRUE(QueryRequest::Parse("QUERYT" + id_line + "t\n//a")
                    .status()
                    .IsInvalidArgument())
        << id;
  }
  auto tagged = QueryRequest::Parse("QUERYT\n18446744073709551615\nt\n//a");
  ASSERT_TRUE(tagged.ok());
  EXPECT_EQ(tagged.value().id, UINT64_MAX);
}

TEST(QueryResponseTest, RoundTrip) {
  QueryResponse response;
  response.id = 12;
  response.result_key = "result-12.xml";
  response.row_count = 349;
  auto parsed = QueryResponse::Parse(response.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().id, 12u);
  EXPECT_EQ(parsed.value().result_key, "result-12.xml");
  EXPECT_EQ(parsed.value().row_count, 349u);
}

TEST(QueryResponseTest, RejectsMalformed) {
  EXPECT_TRUE(QueryResponse::Parse("DONE\n1").status().IsInvalidArgument());
  EXPECT_TRUE(
      QueryResponse::Parse("DONE\n1\n2\n").status().IsInvalidArgument());
  EXPECT_TRUE(QueryResponse::Parse("nope").status().IsInvalidArgument());
  for (const char* text :
       {"DONE\nx\n2\nk", "DONE\n1\n2x\nk", "DONE\n1\n\nk",
        "DONE\n1\n18446744073709551616\nk", "SHED\nx", "SHED\n1 ",
        "SHED\n18446744073709551616", "SHED\n", "SHED"}) {
    EXPECT_TRUE(QueryResponse::Parse(text).status().IsInvalidArgument())
        << text;
  }
  // A DONE body is exactly id, row count and result key: a key with a
  // newline in it must not read back truncated.
  QueryResponse multiline;
  multiline.id = 3;
  multiline.result_key = "k\nextra";
  EXPECT_TRUE(QueryResponse::Parse(multiline.Serialize())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      QueryResponse::Parse("DONE\n1\n2\nk\n").status().IsInvalidArgument());
  auto shed = QueryResponse::Parse("SHED\n9");
  ASSERT_TRUE(shed.ok());
  EXPECT_TRUE(shed.value().shed);
  EXPECT_EQ(shed.value().id, 9u);
}

}  // namespace
}  // namespace webdex::engine
