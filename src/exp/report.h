// Reporting helpers for the figure/table harnesses: gain tables with
// paper-vs-measured columns and simple shape checks.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/experiment.h"

namespace nlarm::exp {

/// One row of a Table-2/Table-3-style gains table.
struct GainRow {
  std::string baseline;  ///< "Random" / "Sequential" / "Load-Aware"
  GainStats measured;
  /// The paper's reported avg/median/max (fractions, e.g. 0.499).
  double paper_average = 0.0;
  double paper_median = 0.0;
  double paper_max = 0.0;
};

/// Prints the gains table with measured and paper columns side by side.
void print_gain_table(std::ostream& out, const std::string& title,
                      const std::vector<GainRow>& rows);

/// A single named shape check: pass/fail plus the observed value. Benches
/// collect these so the harness output documents which qualitative paper
/// findings reproduce.
struct ShapeCheck {
  std::string description;
  bool passed = false;
  std::string detail;
};

/// Prints one [PASS]/[FAIL] line per check plus the tally, and returns the
/// number of failed checks (a harness exits non-zero on any failure).
int print_shape_checks(std::ostream& out,
                       const std::vector<ShapeCheck>& checks);

/// Convenience constructor.
ShapeCheck check(const std::string& description, bool passed,
                 const std::string& detail = "");

/// Mean execution-time table for a sweep: one row per problem size, one
/// column per policy.
void print_time_table(std::ostream& out, const std::string& title,
                      const std::string& row_label,
                      const std::vector<double>& row_values,
                      const std::vector<ComparisonResult>& results);

}  // namespace nlarm::exp
