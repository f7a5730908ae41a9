#include "obs/audit.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "obs/metrics.h"
#include "util/check.h"

namespace nlarm::obs {

namespace {

void append_json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

// --- minimal JSON reader (just enough for AuditRecord round-trips) ---

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    NLARM_CHECK(pos_ == text_.size()) << "trailing JSON at offset " << pos_;
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    NLARM_CHECK(pos_ < text_.size()) << "unexpected end of JSON";
    return text_[pos_];
  }

  void expect(char c) {
    NLARM_CHECK(peek() == c) << "expected '" << c << "' at offset " << pos_;
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        expect_word("null");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  void expect_word(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) expect(*p);
  }

  // No record field is a bool; a bool value (an older record's cache flag)
  // parses and is ignored.
  JsonValue parse_bool() {
    expect_word(peek() == 't' ? "true" : "false");
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    NLARM_CHECK(pos_ > start) << "bad JSON number at offset " << start;
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      NLARM_CHECK(pos_ < text_.size()) << "unterminated JSON string";
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      NLARM_CHECK(pos_ < text_.size()) << "unterminated JSON escape";
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'u': {
          NLARM_CHECK(pos_ + 4 <= text_.size()) << "short \\u escape";
          const unsigned code = static_cast<unsigned>(
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          // Only the control-character range we emit ourselves.
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          NLARM_CHECK(false) << "unsupported JSON escape '\\" << esc << "'";
      }
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

double get_number(const JsonValue& obj, const char* key, double fallback) {
  auto it = obj.object.find(key);
  if (it == obj.object.end()) return fallback;
  return it->second.number;
}

std::string get_string(const JsonValue& obj, const char* key) {
  auto it = obj.object.find(key);
  if (it == obj.object.end()) return {};
  return it->second.string;
}

std::vector<int> get_int_array(const JsonValue& obj, const char* key) {
  std::vector<int> out;
  auto it = obj.object.find(key);
  if (it == obj.object.end()) return out;
  for (const JsonValue& v : it->second.array) {
    out.push_back(static_cast<int>(v.number));
  }
  return out;
}

std::vector<std::string> get_string_array(const JsonValue& obj,
                                          const char* key) {
  std::vector<std::string> out;
  auto it = obj.object.find(key);
  if (it == obj.object.end()) return out;
  for (const JsonValue& v : it->second.array) out.push_back(v.string);
  return out;
}

}  // namespace

std::string AuditRecord::to_json() const {
  std::ostringstream out;
  const auto num = [](double v) { return format_metric_value(v); };
  out << "{\"nprocs\":" << nprocs << ",\"ppn\":" << ppn
      << ",\"alpha\":" << num(alpha) << ",\"beta\":" << num(beta)
      << ",\"snapshot_version\":" << snapshot_version
      << ",\"snapshot_time\":" << num(snapshot_time)
      << ",\"snapshot_nodes\":" << snapshot_nodes
      << ",\"usable_nodes\":" << usable_nodes << ",\"epoch\":" << epoch
      << ",\"action\":";
  append_json_string(out, action);
  out << ",\"reason\":";
  append_json_string(out, reason);
  out << ",\"cluster_load_per_core\":" << num(cluster_load_per_core)
      << ",\"effective_capacity\":" << effective_capacity
      << ",\"degradation\":";
  append_json_string(out, degradation);
  out << ",\"quarantined_nodes\":" << quarantined_nodes << ",\"policy\":";
  append_json_string(out, policy);
  out << ",\"nodes\":[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out << ",";
    out << nodes[i];
  }
  out << "],\"hostnames\":[";
  for (std::size_t i = 0; i < hostnames.size(); ++i) {
    if (i > 0) out << ",";
    append_json_string(out, hostnames[i]);
  }
  out << "],\"procs_per_node\":[";
  for (std::size_t i = 0; i < procs_per_node.size(); ++i) {
    if (i > 0) out << ",";
    out << procs_per_node[i];
  }
  out << "],\"compute_cost\":" << num(compute_cost)
      << ",\"network_cost\":" << num(network_cost)
      << ",\"total_cost\":" << num(total_cost)
      << ",\"candidates_generated\":" << candidates_generated
      << ",\"stages\":{\"gate\":" << num(gate_seconds)
      << ",\"prepare\":" << num(prepare_seconds)
      << ",\"generate\":" << num(generate_seconds)
      << ",\"select\":" << num(select_seconds)
      << ",\"total\":" << num(total_seconds) << "}}";
  return out.str();
}

AuditRecord AuditRecord::from_json(const std::string& json) {
  JsonValue root = JsonParser(json).parse();
  NLARM_CHECK(root.kind == JsonValue::Kind::kObject)
      << "audit record must be a JSON object";
  AuditRecord r;
  r.nprocs = static_cast<int>(get_number(root, "nprocs", 0));
  r.ppn = static_cast<int>(get_number(root, "ppn", 0));
  r.alpha = get_number(root, "alpha", 0.0);
  r.beta = get_number(root, "beta", 0.0);
  r.snapshot_version =
      static_cast<std::uint64_t>(get_number(root, "snapshot_version", 0));
  r.snapshot_time = get_number(root, "snapshot_time", 0.0);
  r.snapshot_nodes = static_cast<int>(get_number(root, "snapshot_nodes", 0));
  r.usable_nodes = static_cast<int>(get_number(root, "usable_nodes", 0));
  r.epoch = static_cast<std::uint64_t>(get_number(root, "epoch", 0));
  r.action = get_string(root, "action");
  r.reason = get_string(root, "reason");
  r.cluster_load_per_core = get_number(root, "cluster_load_per_core", 0.0);
  r.effective_capacity =
      static_cast<int>(get_number(root, "effective_capacity", 0));
  r.degradation = get_string(root, "degradation");
  if (r.degradation.empty()) r.degradation = "none";  // pre-degradation logs
  r.quarantined_nodes =
      static_cast<int>(get_number(root, "quarantined_nodes", 0));
  r.policy = get_string(root, "policy");
  r.nodes = get_int_array(root, "nodes");
  r.hostnames = get_string_array(root, "hostnames");
  r.procs_per_node = get_int_array(root, "procs_per_node");
  r.compute_cost = get_number(root, "compute_cost", 0.0);
  r.network_cost = get_number(root, "network_cost", 0.0);
  r.total_cost = get_number(root, "total_cost", 0.0);
  r.candidates_generated =
      static_cast<std::uint64_t>(get_number(root, "candidates_generated", 0));
  auto stages = root.object.find("stages");
  if (stages != root.object.end()) {
    r.gate_seconds = get_number(stages->second, "gate", 0.0);
    r.prepare_seconds = get_number(stages->second, "prepare", 0.0);
    r.generate_seconds = get_number(stages->second, "generate", 0.0);
    r.select_seconds = get_number(stages->second, "select", 0.0);
    r.total_seconds = get_number(stages->second, "total", 0.0);
  }
  return r;
}

std::string AuditLog::jsonl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const AuditRecord& record : records_) {
    out += record.to_json();
    out += '\n';
  }
  return out;
}

}  // namespace nlarm::obs
