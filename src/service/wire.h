#ifndef FAIRCLIQUE_SERVICE_WIRE_H_
#define FAIRCLIQUE_SERVICE_WIRE_H_

/// The JSON-lines wire protocol of fairclique_server, factored out of the
/// binary so it can be unit-tested and reused: a minimal flat-object JSON
/// parser (string keys; string / number / bool values — no nesting, no
/// arrays, no null, which is all the protocol uses), typed field accessors,
/// token parsers for the protocol's compact list encodings ("0-5,3-7",
/// "4:b"), and response serialization.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bounds/upper_bounds.h"
#include "graph/types.h"
#include "service/query_executor.h"

namespace fairclique {
namespace wire {

// ----------------------------------------------------------------- JSON in

struct JsonValue {
  enum class Type { kString, kNumber, kBool };
  Type type = Type::kString;
  std::string str;
  double num = 0.0;
  bool b = false;
};

using JsonObject = std::map<std::string, JsonValue>;

/// Parses one flat JSON object from `line`. On failure returns false and
/// describes the problem in `*error`.
bool ParseJsonObject(const std::string& line, JsonObject* out,
                     std::string* error);

/// Typed accessors; a missing key or a value of the wrong type yields the
/// fallback.
std::string GetString(const JsonObject& obj, const std::string& key,
                      const std::string& fallback = "");
double GetNumber(const JsonObject& obj, const std::string& key,
                 double fallback);
bool GetBool(const JsonObject& obj, const std::string& key, bool fallback);

/// Largest integer a JSON number (a double) carries exactly: 2^53.
constexpr int64_t kMaxExactJsonInt = int64_t{1} << 53;

/// Integer field in [lo, hi]; both bounds must lie within +-kMaxExactJsonInt.
/// A missing key stores `fallback` and succeeds. A value that is not a
/// number, not finite, not integral or out of range returns false and
/// leaves `*out` untouched, so no narrowing cast ever sees it.
bool GetInt(const JsonObject& obj, const std::string& key, int64_t fallback,
            int64_t lo, int64_t hi, int64_t* out);

// ---------------------------------------------------------------- JSON out

/// Escapes `s` for embedding in a JSON string literal.
std::string JsonEscape(const std::string& s);

/// Streaming JSON serializer for the response side of the protocol: nested
/// objects/arrays, automatic commas, and escaping through one code path —
/// so no response line can be built with a hand-managed quote or a missed
/// escape again. Usage:
///
///   JsonWriter w;
///   w.BeginObject().Field("ok", true).Field("id", id);
///   w.Key("vertices").BeginArray();
///   for (VertexId v : clique) w.Value(int64_t{v});
///   w.EndArray().EndObject();
///   printf("%s\n", w.str().c_str());
///
/// The writer trusts the caller to call Begin/End/Key in a well-formed
/// order (it tracks only comma placement); wire_test locks down the output
/// for each value type.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& key);

  JsonWriter& Value(const std::string& v);  // quoted + escaped
  JsonWriter& Value(const char* v);
  JsonWriter& Value(bool v);
  JsonWriter& Value(double v);  // %.17g, shortest round-trip not needed
  JsonWriter& Value(int v);
  JsonWriter& Value(unsigned v);
  JsonWriter& Value(long v);
  JsonWriter& Value(unsigned long v);
  JsonWriter& Value(long long v);
  JsonWriter& Value(unsigned long long v);

  /// Splices `json` into the stream verbatim (comma handling included).
  /// For embedding an already-serialized subdocument — e.g. the EXPLAIN
  /// plan a QueryResponse carries pre-rendered — without re-escaping it as
  /// a string. The caller guarantees `json` is itself well-formed.
  JsonWriter& Raw(const std::string& json);

  template <typename T>
  JsonWriter& Field(const std::string& key, T&& v) {
    Key(key);
    return Value(std::forward<T>(v));
  }

  const std::string& str() const { return out_; }

 private:
  /// Emits the separator a value/key needs at the current position.
  void BeforeItem();

  std::string out_;
  /// One entry per open container: true until its first item is written.
  std::vector<bool> first_;
  /// True between Key() and its value (the ':' already separates them).
  bool after_key_ = false;
};

/// {"ok":false,"id":<id>,"error":"<message>"}
std::string ErrorJson(uint64_t id, const std::string& message);

/// Structured error for `trace <id>` / `slowlog` misses: unlike the generic
/// ErrorJson, it echoes the requested trace id and a machine-readable
/// reason ("not_retained" — the trace was evicted by a slower query or was
/// never slow enough to enter the slowlog).
std::string TraceNotFoundJson(uint64_t id, uint64_t trace_id);

/// The query response line: clique size/counts/vertices plus the serving
/// flags (cache_hit / incremental / warm_start / prepared_hit / completed /
/// deadline_missed) and timings. A non-OK response serializes as ErrorJson.
std::string QueryResponseJson(uint64_t id, const std::string& graph,
                              const QueryResponse& response);

// ----------------------------------------------------------- token parsing

/// Splits a comma-separated list; empty input (and empty segments) yield no
/// tokens.
std::vector<std::string> SplitList(const std::string& s);

/// "a"/"0" -> kA, "b"/"1" -> kB.
bool ParseAttrToken(const std::string& token, Attribute* out);

/// Parses a decimal vertex id spanning [s, expected_end), rejecting values
/// that do not fit VertexId (a silent narrowing would mutate some unrelated
/// small id instead).
bool ParseVertexId(const char* s, const char* expected_end, VertexId* out);

/// Parses "<u><sep><v>" into two vertex ids.
bool ParseVertexPair(const std::string& token, char sep, VertexId* u,
                     VertexId* v);

/// Protocol names of the extra upper bounds: none|degeneracy|d|hindex|h|
/// cd|ch|cp; the empty string means none.
bool ParseExtraBound(const std::string& name, ExtraBound* out);

}  // namespace wire
}  // namespace fairclique

#endif  // FAIRCLIQUE_SERVICE_WIRE_H_
