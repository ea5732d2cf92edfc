#include "index/keys.h"

namespace webdex::index {

std::string ElementKey(std::string_view label) {
  std::string key;
  key.reserve(label.size() + 1);
  key.push_back(kElementPrefix);
  key.append(label);
  return key;
}

std::string AttributeNameKey(std::string_view name) {
  std::string key;
  key.reserve(name.size() + 1);
  key.push_back(kAttributePrefix);
  key.append(name);
  return key;
}

std::string AttributeValueKey(std::string_view name,
                              std::string_view value) {
  std::string key;
  key.reserve(name.size() + value.size() + 2);
  key.push_back(kAttributePrefix);
  key.append(name);
  key.push_back(' ');
  key.append(value);
  return key;
}

std::string WordKey(std::string_view word) {
  std::string key;
  key.reserve(word.size() + 1);
  key.push_back(kWordPrefix);
  key.append(word);
  return key;
}

void AppendPathComponent(std::string* out, std::string_view key) {
  for (char c : key) {
    if (c == '/') {
      out->append("%2F");
    } else if (c == '%') {
      out->append("%25");
    } else {
      out->push_back(c);
    }
  }
}

std::string PathComponent(std::string_view key) {
  std::string out;
  out.reserve(key.size());
  AppendPathComponent(&out, key);
  return out;
}

void AppendSplitPath(std::string_view path, std::string* scratch,
                     std::vector<std::string_view>* out) {
  size_t start = path.empty() || path[0] != '/' ? 0 : 1;
  while (start <= path.size()) {
    size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    std::string_view raw = path.substr(start, end - start);
    if (raw.find('%') == std::string_view::npos) {
      out->push_back(raw);  // common case: view straight into `path`
    } else {
      const size_t scratch_start = scratch->size();
      for (size_t i = 0; i < raw.size(); ++i) {
        if (raw[i] == '%' && i + 2 < raw.size()) {
          if (raw.substr(i, 3) == "%2F") {
            scratch->push_back('/');
            i += 2;
            continue;
          }
          if (raw.substr(i, 3) == "%25") {
            scratch->push_back('%');
            i += 2;
            continue;
          }
        }
        scratch->push_back(raw[i]);
      }
      out->push_back(std::string_view(*scratch).substr(scratch_start));
    }
    if (end == path.size()) break;
    start = end + 1;
  }
}

void SplitPathInto(std::string_view path, std::string* scratch,
                   std::vector<std::string_view>* out) {
  out->clear();
  scratch->clear();
  // Unescaped bytes land in the scratch buffer; reserving up front keeps
  // its data pointer stable, so earlier views survive later appends.
  scratch->reserve(path.size());
  AppendSplitPath(path, scratch, out);
}

std::vector<std::string> SplitPath(std::string_view path) {
  std::string scratch;
  std::vector<std::string_view> views;
  SplitPathInto(path, &scratch, &views);
  return {views.begin(), views.end()};
}

}  // namespace webdex::index
