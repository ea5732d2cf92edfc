#include "engine/message.h"

#include "common/strings.h"

namespace webdex::engine {
namespace {

// Splits "tag\nrest" and verifies the tag.
Result<std::string> ExpectTag(const std::string& text,
                              std::string_view tag) {
  const size_t newline = text.find('\n');
  const std::string_view head =
      newline == std::string::npos
          ? std::string_view(text)
          : std::string_view(text).substr(0, newline);
  if (head != tag) {
    return Status::InvalidArgument(
        StrFormat("expected %.*s message, got '%.*s'",
                  static_cast<int>(tag.size()), tag.data(),
                  static_cast<int>(head.size()), head.data()));
  }
  return newline == std::string::npos ? std::string()
                                      : text.substr(newline + 1);
}

}  // namespace

std::string LoadRequest::Serialize() const {
  switch (op) {
    case LoadOp::kAdd:
      return "LOAD\n" + uri;
    case LoadOp::kUpsert:
      return StrFormat("UPSERT\n%llu\n",
                       static_cast<unsigned long long>(generation)) +
             uri;
    case LoadOp::kDelete:
      return StrFormat("DELETE\n%llu\n",
                       static_cast<unsigned long long>(generation)) +
             uri;
  }
  return "LOAD\n" + uri;  // unreachable
}

namespace {

// Parses the "<generation>\n<uri>" body shared by UPSERT and DELETE.
Result<LoadRequest> ParseMutation(std::string rest, LoadOp op,
                                  std::string_view tag) {
  const size_t newline = rest.find('\n');
  if (newline == std::string::npos) {
    return Status::InvalidArgument(
        StrFormat("%.*s without generation", static_cast<int>(tag.size()),
                  tag.data()));
  }
  LoadRequest req;
  req.op = op;
  WEBDEX_ASSIGN_OR_RETURN(
      req.generation,
      ParseDecimal(std::string_view(rest).substr(0, newline), "generation"));
  if (req.generation == 0) {
    return Status::InvalidArgument(
        StrFormat("%.*s with generation 0", static_cast<int>(tag.size()),
                  tag.data()));
  }
  req.uri = rest.substr(newline + 1);
  if (req.uri.empty()) {
    return Status::InvalidArgument(StrFormat(
        "%.*s without URI", static_cast<int>(tag.size()), tag.data()));
  }
  return req;
}

}  // namespace

Result<LoadRequest> LoadRequest::Parse(const std::string& text) {
  {
    auto rest = ExpectTag(text, "UPSERT");
    if (rest.ok()) {
      return ParseMutation(std::move(rest).value(), LoadOp::kUpsert, "UPSERT");
    }
  }
  {
    auto rest = ExpectTag(text, "DELETE");
    if (rest.ok()) {
      return ParseMutation(std::move(rest).value(), LoadOp::kDelete, "DELETE");
    }
  }
  WEBDEX_ASSIGN_OR_RETURN(std::string rest, ExpectTag(text, "LOAD"));
  if (rest.empty()) return Status::InvalidArgument("LOAD without URI");
  LoadRequest req;
  req.uri = std::move(rest);
  return req;
}

std::string QueryRequest::Serialize() const {
  // Tenant-tagged requests get their own tag (the query text is the
  // final, newline-containing field, so nothing can be appended after
  // it); untagged requests serialize byte-identically to the
  // pre-admission wire format.
  if (tenant.empty()) {
    return StrFormat("QUERY\n%llu\n", static_cast<unsigned long long>(id)) +
           query_text;
  }
  return StrFormat("QUERYT\n%llu\n", static_cast<unsigned long long>(id)) +
         tenant + "\n" + query_text;
}

Result<QueryRequest> QueryRequest::Parse(const std::string& text) {
  {
    auto rest = ExpectTag(text, "QUERYT");
    if (rest.ok()) {
      const std::string& body = rest.value();
      const size_t id_end = body.find('\n');
      const size_t tenant_end =
          id_end == std::string::npos ? std::string::npos
                                      : body.find('\n', id_end + 1);
      if (tenant_end == std::string::npos) {
        return Status::InvalidArgument("QUERYT without body");
      }
      QueryRequest req;
      WEBDEX_ASSIGN_OR_RETURN(
          req.id,
          ParseDecimal(std::string_view(body).substr(0, id_end), "query id"));
      req.tenant = body.substr(id_end + 1, tenant_end - id_end - 1);
      req.query_text = body.substr(tenant_end + 1);
      if (req.tenant.empty()) {
        return Status::InvalidArgument("QUERYT with empty tenant");
      }
      if (req.query_text.empty()) {
        return Status::InvalidArgument("QUERYT with empty text");
      }
      return req;
    }
  }
  WEBDEX_ASSIGN_OR_RETURN(std::string rest, ExpectTag(text, "QUERY"));
  const size_t newline = rest.find('\n');
  if (newline == std::string::npos) {
    return Status::InvalidArgument("QUERY without body");
  }
  QueryRequest req;
  WEBDEX_ASSIGN_OR_RETURN(
      req.id,
      ParseDecimal(std::string_view(rest).substr(0, newline), "query id"));
  req.query_text = rest.substr(newline + 1);
  if (req.query_text.empty()) {
    return Status::InvalidArgument("QUERY with empty text");
  }
  return req;
}

std::string QueryResponse::Serialize() const {
  // Shed responses carry no result object; regular ones serialize
  // byte-identically to the pre-admission wire format.
  if (shed) {
    return StrFormat("SHED\n%llu", static_cast<unsigned long long>(id));
  }
  return StrFormat("DONE\n%llu\n%llu\n",
                   static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(row_count)) +
         result_key;
}

Result<QueryResponse> QueryResponse::Parse(const std::string& text) {
  {
    auto rest = ExpectTag(text, "SHED");
    if (rest.ok()) {
      QueryResponse resp;
      resp.shed = true;
      WEBDEX_ASSIGN_OR_RETURN(resp.id, ParseDecimal(rest.value(), "query id"));
      return resp;
    }
  }
  WEBDEX_ASSIGN_OR_RETURN(std::string rest, ExpectTag(text, "DONE"));
  // Exactly id, row count and result key: a key with a newline in it
  // would otherwise read back truncated.
  const auto lines = Split(rest, '\n');
  if (lines.size() != 3) {
    return Status::InvalidArgument("malformed DONE message");
  }
  QueryResponse resp;
  WEBDEX_ASSIGN_OR_RETURN(resp.id, ParseDecimal(lines[0], "query id"));
  WEBDEX_ASSIGN_OR_RETURN(resp.row_count, ParseDecimal(lines[1], "row count"));
  resp.result_key = lines[2];
  if (resp.result_key.empty()) {
    return Status::InvalidArgument("DONE without result key");
  }
  return resp;
}

}  // namespace webdex::engine
