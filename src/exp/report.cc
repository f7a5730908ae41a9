#include "exp/report.h"

#include <ostream>

#include "util/check.h"
#include "util/strings.h"
#include "util/table.h"

namespace nlarm::exp {

void print_gain_table(std::ostream& out, const std::string& title,
                      const std::vector<GainRow>& rows) {
  out << title << "\n";
  util::TextTable table({"Allocation Policy", "Avg Gain", "Median Gain",
                         "Max Gain", "Paper Avg", "Paper Median",
                         "Paper Max", "Samples"});
  for (const GainRow& row : rows) {
    table.add_row({row.baseline,
                   util::format("%.1f%%", row.measured.average * 100.0),
                   util::format("%.1f%%", row.measured.median * 100.0),
                   util::format("%.1f%%", row.measured.max * 100.0),
                   util::format("%.1f%%", row.paper_average * 100.0),
                   util::format("%.1f%%", row.paper_median * 100.0),
                   util::format("%.1f%%", row.paper_max * 100.0),
                   util::format("%zu", row.measured.samples)});
  }
  table.print(out);
  out << "\n";
}

ShapeCheck check(const std::string& description, bool passed,
                 const std::string& detail) {
  return ShapeCheck{description, passed, detail};
}

int print_shape_checks(std::ostream& out,
                       const std::vector<ShapeCheck>& checks) {
  int passed = 0;
  out << "Shape checks (paper findings that should reproduce):\n";
  for (const ShapeCheck& c : checks) {
    out << "  [" << (c.passed ? "PASS" : "FAIL") << "] " << c.description;
    if (!c.detail.empty()) out << " — " << c.detail;
    out << "\n";
    if (c.passed) ++passed;
  }
  out << util::format("  %d/%zu shape checks passed\n\n", passed,
                      checks.size());
  return static_cast<int>(checks.size()) - passed;
}

void print_time_table(std::ostream& out, const std::string& title,
                      const std::string& row_label,
                      const std::vector<double>& row_values,
                      const std::vector<ComparisonResult>& results) {
  NLARM_CHECK(row_values.size() == results.size())
      << "row values and results mismatch";
  out << title << "\n";
  util::TextTable table({row_label, "random", "sequential", "load-aware",
                         "network-load-aware"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    table.add_row(util::format("%g", row_values[i]),
                  {results[i].mean_time(Policy::kRandom),
                   results[i].mean_time(Policy::kSequential),
                   results[i].mean_time(Policy::kLoadAware),
                   results[i].mean_time(Policy::kNetworkLoadAware)});
  }
  table.print(out);
  out << "(mean execution seconds over repetitions)\n\n";
}

}  // namespace nlarm::exp
