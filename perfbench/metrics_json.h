// Reader for the server's admin /metrics.json exposition: a flat array of
// {"name", optional "labels", "help", "type", then numeric fields}.
#ifndef PERFBENCH_METRICS_JSON_H_
#define PERFBENCH_METRICS_JSON_H_

#include <cstdlib>
#include <map>
#include <string>

namespace perfbench {

/// Numeric fields of one series ("value" for counters and gauges; "count",
/// "sum", "mean", "p50", "p99", "max", ... for histograms).
using SeriesFields = std::map<std::string, double>;

/// Series keyed by name, or name{labels} when labelled.
class ServerMetrics {
 public:
  static ServerMetrics Parse(const std::string& json) {
    ServerMetrics out;
    const std::string open = "{\"name\":\"";
    size_t pos = 0;
    while ((pos = json.find(open, pos)) != std::string::npos) {
      pos += open.size();
      const size_t name_end = json.find('"', pos);
      // Help text may hold any character; the numeric fields after "type"
      // cannot, so the object ends at the first '}' past "type".
      const size_t type_at = json.find("\"type\":\"", name_end);
      const size_t object_end = json.find('}', type_at);
      if (name_end == std::string::npos || type_at == std::string::npos ||
          object_end == std::string::npos) {
        break;
      }
      std::string key = json.substr(pos, name_end - pos);
      const std::string body = json.substr(name_end, object_end - name_end);
      const size_t labels = body.find("\"labels\":\"");
      if (labels != std::string::npos) {
        // Label values are quoted inside, escaped as \" in JSON.
        const size_t start = labels + 10;
        const size_t end = body.find("\",", start);
        std::string text = body.substr(start, end - start);
        std::string unescaped;
        for (char c : text) {
          if (c != '\\') unescaped.push_back(c);
        }
        key += "{" + unescaped + "}";
      }
      SeriesFields fields;
      size_t p = type_at - name_end;
      while ((p = body.find(",\"", p)) != std::string::npos) {
        const size_t key_start = p + 2;
        const size_t key_end = body.find('"', key_start);
        const size_t colon = key_end + 1;
        if (key_end == std::string::npos || colon >= body.size() ||
            body[colon] != ':') {
          break;
        }
        const std::string field = body.substr(key_start, key_end - key_start);
        const char* begin = body.c_str() + colon + 1;
        char* end = nullptr;
        const double v = std::strtod(begin, &end);
        if (end != begin) fields[field] = v;
        p = colon;
      }
      out.series_[key] = fields;
      pos = object_end;
    }
    return out;
  }

  bool empty() const { return series_.empty(); }
  /// Whether the series exists and carries the field.
  bool Has(const std::string& key, const std::string& field = "value") const {
    auto it = series_.find(key);
    return it != series_.end() && it->second.count(field) > 0;
  }
  /// Field of a series, 0 when absent.
  double Get(const std::string& key, const std::string& field = "value")
      const {
    auto it = series_.find(key);
    if (it == series_.end()) return 0;
    auto f = it->second.find(field);
    return f == it->second.end() ? 0 : f->second;
  }

 private:
  std::map<std::string, SeriesFields> series_;
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_JSON_H_
