// bench_compare — compares two sets of adamove_bench runs against the
// regression bounds in BENCHMARK.json.
//
//   bench_compare BENCHMARK.json <base-metrics> <new-metrics>
//
// Each metrics file holds the stdout of any number of runs; only lines of
// the form `<workload> <metric> <value> <unit>` are read, so comment lines
// and the JSON summaries are skipped. For every workload and end-to-end
// metric the tool prints each side's median and quartiles (Python's
// statistics.quantiles, exclusive method) and a verdict:
//
//   worse       the new median is worse than the base median by more than
//               the metric's bound;
//   better      the new median is better by more than both the bound and
//               the base's own quartile spread;
//   unresolved  the base's quartile spread exceeds the bound, so a change
//               within it cannot be told from noise (unless every new run
//               beats every base run, which reads `better`);
//   same        otherwise.
//
// Exits 1 when any pair is worse or unresolved, 2 on bad input.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

// ---- a minimal JSON reader (objects, arrays, strings, numbers, literals) --

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  const Json* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(Json* out) {
    if (!Value(out)) return false;
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        c = s_[pos_++];
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
        if (c == 'u') return false;  // not needed by BENCHMARK.json
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }

  bool Value(Json* out) {
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
      for (;;) {
        SkipSpace();
        std::string key;
        if (!String(&key)) return false;
        SkipSpace();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        Json value;
        if (!Value(&value)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
        SkipSpace();
        if (pos_ < s_.size() && s_[pos_] == ',') { ++pos_; continue; }
        if (pos_ < s_.size() && s_[pos_] == '}') return ++pos_, true;
        return false;
      }
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
      for (;;) {
        Json value;
        if (!Value(&value)) return false;
        out->array.push_back(std::move(value));
        SkipSpace();
        if (pos_ < s_.size() && s_[pos_] == ',') { ++pos_; continue; }
        if (pos_ < s_.size() && s_[pos_] == ']') return ++pos_, true;
        return false;
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (Literal("true") || Literal("false")) {
      out->type = Json::Type::kBool;
      return true;
    }
    if (Literal("null")) return true;
    size_t used = 0;
    try {
      out->number = std::stod(s_.substr(pos_), &used);
    } catch (...) {
      return false;
    }
    out->type = Json::Type::kNumber;
    pos_ += used;
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---- statistics -------------------------------------------------------------

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// statistics.quantiles(v, n=4) (exclusive method): {q1, q2, q3}. Needs at
/// least two values.
std::vector<double> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::vector<double> out;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out.push_back((v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
                   v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                  4.0);
  }
  return out;
}

using Samples = std::map<std::pair<std::string, std::string>, std::vector<double>>;

bool ReadMetrics(const std::string& path, Samples* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '{') continue;
    std::istringstream fields(line);
    std::string workload, metric, value, unit, extra;
    if (!(fields >> workload >> metric >> value >> unit) || (fields >> extra)) {
      continue;
    }
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (*end != '\0') continue;
    (*out)[{workload, metric}].push_back(v);
  }
  return true;
}

struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: bench_compare BENCHMARK.json <base-metrics> "
                 "<new-metrics>\n");
    return 2;
  }
  std::ifstream spec_file(argv[1]);
  std::stringstream text;
  text << spec_file.rdbuf();
  const std::string body = text.str();
  Json spec;
  if (!spec_file || !JsonParser(body).Parse(&spec) ||
      spec.type != Json::Type::kObject) {
    std::fprintf(stderr, "bench_compare: cannot parse %s\n", argv[1]);
    return 2;
  }
  std::vector<Bound> bounds;
  std::vector<std::string> workloads;
  const Json* e2e = spec.Find("end_to_end");
  const Json* wl = spec.Find("workloads");
  if (e2e == nullptr || wl == nullptr) {
    std::fprintf(stderr, "bench_compare: %s lacks end_to_end or workloads\n",
                 argv[1]);
    return 2;
  }
  for (const Json& m : e2e->array) {
    const Json* name = m.Find("name");
    const Json* better = m.Find("better");
    const Json* bound = m.Find("bound");
    if (name == nullptr || better == nullptr || bound == nullptr) {
      std::fprintf(stderr, "bench_compare: malformed end_to_end entry\n");
      return 2;
    }
    bounds.push_back({name->string, better->string == "lower", bound->number});
  }
  for (const Json& w : wl->array) {
    if (const Json* name = w.Find("name")) workloads.push_back(name->string);
  }

  Samples base, next;
  if (!ReadMetrics(argv[2], &base) || !ReadMetrics(argv[3], &next)) {
    std::fprintf(stderr, "bench_compare: cannot read the metrics files\n");
    return 2;
  }

  std::printf("%-12s %-12s %5s %28s %28s %9s %7s  %s\n", "workload", "metric",
              "runs", "base median [q1, q3]", "new median [q1, q3]", "worse by",
              "bound", "verdict");
  int bad = 0;
  for (const std::string& w : workloads) {
    for (const Bound& b : bounds) {
      const auto bi = base.find({w, b.name});
      const auto ni = next.find({w, b.name});
      if (bi == base.end() || ni == next.end() || bi->second.size() < 2 ||
          ni->second.size() < 2) {
        std::printf("%-12s %-12s %5s %28s %28s %9s %6.1f%%  unresolved "
                    "(fewer than two runs on a side)\n",
                    w.c_str(), b.name.c_str(), "-", "-", "-", "-",
                    b.bound * 100);
        ++bad;
        continue;
      }
      const std::vector<double>& bv = bi->second;
      const std::vector<double>& nv = ni->second;
      const double bm = Median(bv);
      const double nm = Median(nv);
      const std::vector<double> bq = Quartiles(bv);
      const std::vector<double> nq = Quartiles(nv);
      const double scale = std::fabs(bm) > 0 ? std::fabs(bm) : 1.0;
      // Positive = the new side is worse.
      const double worse = (b.lower_is_better ? nm - bm : bm - nm) / scale;
      const double spread = (bq[2] - bq[0]) / scale;
      const auto better_than = [&](double x, double y) {
        return b.lower_is_better ? x < y : x > y;
      };
      bool all_better = true;
      for (double x : nv) {
        for (double y : bv) all_better = all_better && better_than(x, y);
      }
      const char* verdict = "same";
      if (spread > b.bound) {
        verdict = all_better ? "better" : "unresolved";
      } else if (worse > b.bound) {
        verdict = "worse";
      } else if (-worse > std::max(b.bound, spread)) {
        verdict = "better";
      }
      if (std::string(verdict) == "worse" ||
          std::string(verdict) == "unresolved") {
        ++bad;
      }
      char base_cell[64], new_cell[64];
      std::snprintf(base_cell, sizeof(base_cell), "%.5g [%.5g, %.5g]", bm,
                    bq[0], bq[2]);
      std::snprintf(new_cell, sizeof(new_cell), "%.5g [%.5g, %.5g]", nm, nq[0],
                    nq[2]);
      std::printf("%-12s %-12s %2zu/%-2zu %28s %28s %+8.2f%% %6.1f%%  %s\n",
                  w.c_str(), b.name.c_str(), bv.size(), nv.size(), base_cell,
                  new_cell, worse * 100, b.bound * 100, verdict);
    }
  }
  return bad == 0 ? 0 : 1;
}
