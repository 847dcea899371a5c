#include "service/wire.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace fairclique {
namespace wire {

namespace {

bool SkipSpace(const std::string& s, size_t* i) {
  while (*i < s.size() && std::isspace(static_cast<unsigned char>(s[*i]))) {
    ++*i;
  }
  return *i < s.size();
}

bool ParseJsonString(const std::string& s, size_t* i, std::string* out) {
  if (s[*i] != '"') return false;
  ++*i;
  out->clear();
  while (*i < s.size() && s[*i] != '"') {
    char c = s[*i];
    if (c == '\\') {
      if (*i + 1 >= s.size()) return false;
      char esc = s[*i + 1];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        default: return false;  // \uXXXX etc. not needed by this protocol
      }
      *i += 2;
    } else {
      out->push_back(c);
      ++*i;
    }
  }
  if (*i >= s.size()) return false;
  ++*i;  // closing quote
  return true;
}

}  // namespace

bool ParseJsonObject(const std::string& line, JsonObject* out,
                     std::string* error) {
  *error = "";
  out->clear();
  size_t i = 0;
  if (!SkipSpace(line, &i) || line[i] != '{') {
    *error = "expected '{'";
    return false;
  }
  ++i;
  if (!SkipSpace(line, &i)) {
    *error = "unterminated object";
    return false;
  }
  if (line[i] == '}') return true;  // empty object
  while (true) {
    if (!SkipSpace(line, &i)) break;
    std::string key;
    if (!ParseJsonString(line, &i, &key)) {
      *error = "expected string key";
      return false;
    }
    if (!SkipSpace(line, &i) || line[i] != ':') {
      *error = "expected ':' after key '" + key + "'";
      return false;
    }
    ++i;
    if (!SkipSpace(line, &i)) break;
    JsonValue value;
    char c = line[i];
    if (c == '"') {
      value.type = JsonValue::Type::kString;
      if (!ParseJsonString(line, &i, &value.str)) {
        *error = "bad string value for '" + key + "'";
        return false;
      }
    } else if (std::strncmp(line.c_str() + i, "true", 4) == 0) {
      value.type = JsonValue::Type::kBool;
      value.b = true;
      i += 4;
    } else if (std::strncmp(line.c_str() + i, "false", 5) == 0) {
      value.type = JsonValue::Type::kBool;
      value.b = false;
      i += 5;
    } else {
      value.type = JsonValue::Type::kNumber;
      char* end = nullptr;
      value.num = std::strtod(line.c_str() + i, &end);
      if (end == line.c_str() + i) {
        *error = "bad value for '" + key + "'";
        return false;
      }
      i = static_cast<size_t>(end - line.c_str());
    }
    (*out)[key] = std::move(value);
    if (!SkipSpace(line, &i)) break;
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') return true;
    *error = "expected ',' or '}'";
    return false;
  }
  *error = "unterminated object";
  return false;
}

std::string GetString(const JsonObject& obj, const std::string& key,
                      const std::string& fallback) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.type != JsonValue::Type::kString) {
    return fallback;
  }
  return it->second.str;
}

double GetNumber(const JsonObject& obj, const std::string& key,
                 double fallback) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.type != JsonValue::Type::kNumber) {
    return fallback;
  }
  return it->second.num;
}

bool GetBool(const JsonObject& obj, const std::string& key, bool fallback) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.type != JsonValue::Type::kBool) {
    return fallback;
  }
  return it->second.b;
}

bool GetInt(const JsonObject& obj, const std::string& key, int64_t fallback,
            int64_t lo, int64_t hi, int64_t* out) {
  auto it = obj.find(key);
  if (it == obj.end()) {
    *out = fallback;
    return true;
  }
  if (it->second.type != JsonValue::Type::kNumber) return false;
  const double x = it->second.num;
  if (!std::isfinite(x) || x != std::floor(x)) return false;
  if (x < static_cast<double>(lo) || x > static_cast<double>(hi)) return false;
  *out = static_cast<int64_t>(x);
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::BeforeItem() {
  if (after_key_) {
    // The value right after Key() is already separated by the ':'.
    after_key_ = false;
    return;
  }
  if (first_.empty()) return;
  if (first_.back()) {
    first_.back() = false;
  } else {
    out_.push_back(',');
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeItem();
  out_.push_back('{');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeItem();
  out_.push_back('[');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_.push_back(']');
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  BeforeItem();
  out_.push_back('"');
  out_ += JsonEscape(key);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& v) {
  BeforeItem();
  out_.push_back('"');
  out_ += JsonEscape(v);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Value(const char* v) {
  return Value(std::string(v));
}

JsonWriter& JsonWriter::Raw(const std::string& json) {
  BeforeItem();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::Value(bool v) {
  BeforeItem();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(double v) {
  BeforeItem();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Value(long long v) {
  BeforeItem();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(unsigned long long v) {
  BeforeItem();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Value(int v) { return Value(static_cast<long long>(v)); }
JsonWriter& JsonWriter::Value(unsigned v) {
  return Value(static_cast<unsigned long long>(v));
}
JsonWriter& JsonWriter::Value(long v) {
  return Value(static_cast<long long>(v));
}
JsonWriter& JsonWriter::Value(unsigned long v) {
  return Value(static_cast<unsigned long long>(v));
}

std::string ErrorJson(uint64_t id, const std::string& message) {
  JsonWriter w;
  w.BeginObject()
      .Field("ok", false)
      .Field("id", static_cast<unsigned long long>(id))
      .Field("error", message)
      .EndObject();
  return w.str();
}

std::string TraceNotFoundJson(uint64_t id, uint64_t trace_id) {
  JsonWriter w;
  w.BeginObject()
      .Field("ok", false)
      .Field("id", static_cast<unsigned long long>(id))
      .Field("error", "trace " + std::to_string(trace_id) + " not retained")
      .Field("trace_id", static_cast<unsigned long long>(trace_id))
      .Field("reason", "not_retained")
      .EndObject();
  return w.str();
}

std::string QueryResponseJson(uint64_t id, const std::string& graph,
                              const QueryResponse& r) {
  if (!r.status.ok()) return ErrorJson(id, r.status.ToString());
  const SearchResult& sr = *r.result;
  JsonWriter w;
  w.BeginObject()
      .Field("ok", true)
      .Field("id", static_cast<unsigned long long>(id))
      .Field("graph", graph)
      .Field("size", static_cast<unsigned long long>(sr.clique.size()));
  w.Key("counts").BeginArray();
  w.Value(sr.clique.attr_counts.a()).Value(sr.clique.attr_counts.b());
  w.EndArray();
  w.Key("vertices").BeginArray();
  for (VertexId v : sr.clique.vertices) w.Value(v);
  w.EndArray();
  w.Field("cache_hit", r.cache_hit)
      .Field("incremental", r.incremental)
      .Field("warm_start", r.warm_start)
      .Field("prepared_hit", r.prepared_hit)
      .Field("completed", sr.stats.completed)
      .Field("deadline_missed", r.deadline_missed)
      .Field("trace_id", static_cast<unsigned long long>(r.trace_id))
      .Field("queue_micros", static_cast<long long>(r.queue_micros))
      .Field("run_micros", static_cast<long long>(r.run_micros));
  // New fields append here, after the originals: external scrapers (and the
  // CI crash-recovery smoke) pattern-match on the field order above.
  w.Field("stop_reason", r.stop_reason);
  if (!r.plan_json.empty()) w.Key("plan").Raw(r.plan_json);
  w.EndObject();
  return w.str();
}

std::vector<std::string> SplitList(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool ParseAttrToken(const std::string& token, Attribute* out) {
  if (token == "a" || token == "0") *out = Attribute::kA;
  else if (token == "b" || token == "1") *out = Attribute::kB;
  else return false;
  return true;
}

bool ParseVertexId(const char* s, const char* expected_end, VertexId* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end != expected_end || v > 0xffffffffULL) return false;
  *out = static_cast<VertexId>(v);
  return true;
}

bool ParseVertexPair(const std::string& token, char sep, VertexId* u,
                     VertexId* v) {
  size_t pos = token.find(sep);
  if (pos == std::string::npos || pos == 0 || pos + 1 >= token.size()) {
    return false;
  }
  return ParseVertexId(token.c_str(), token.c_str() + pos, u) &&
         ParseVertexId(token.c_str() + pos + 1,
                       token.c_str() + token.size(), v);
}

bool ParseExtraBound(const std::string& name, ExtraBound* out) {
  if (name.empty() || name == "none") *out = ExtraBound::kNone;
  else if (name == "degeneracy" || name == "d") *out = ExtraBound::kDegeneracy;
  else if (name == "hindex" || name == "h") *out = ExtraBound::kHIndex;
  else if (name == "cd") *out = ExtraBound::kColorfulDegeneracy;
  else if (name == "ch") *out = ExtraBound::kColorfulHIndex;
  else if (name == "cp") *out = ExtraBound::kColorfulPath;
  else return false;
  return true;
}

}  // namespace wire
}  // namespace fairclique
