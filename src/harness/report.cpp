#include "harness/report.hpp"

#include <algorithm>
#include <cmath>

#include "common/table.hpp"

namespace mabfuzz::harness {

using common::Table;

void render_table1(std::ostream& os, const std::vector<Table1Row>& rows,
                   std::vector<std::string> columns) {
  if (columns.empty() && !rows.empty()) {
    for (const auto& [policy, speedup] : rows.front().speedup) {
      columns.push_back(policy);
    }
  }
  std::vector<std::string> header{"Vulnerability", "CWE", "TheHuzz #Tests"};
  for (const std::string& policy : columns) {
    header.push_back(policy + " Speedup");
  }
  Table table(header);
  for (const Table1Row& row : rows) {
    const soc::BugInfo& info = soc::bug_info(row.bug);
    auto cell = [&](const std::string& policy) -> std::string {
      const auto it = row.speedup.find(policy);
      if (it == row.speedup.end()) {
        return "-";
      }
      const auto detected_it = row.detected.find(policy);
      const bool detected = detected_it == row.detected.end() || detected_it->second;
      return common::format_speedup(it->second) + (detected ? "" : " (>)");
    };
    std::vector<std::string> cells{
        std::string(info.name) + ": " + std::string(info.description),
        std::string(info.cwe), common::format_scientific(row.thehuzz_tests)};
    for (const std::string& policy : columns) {
      cells.push_back(cell(policy));
    }
    table.add_row(std::move(cells));
  }
  table.render(os);
}

void ascii_plot(std::ostream& os,
                const std::vector<std::pair<std::string, const CoverageCurve*>>& series,
                unsigned rows, unsigned cols) {
  if (series.empty() || series.front().second->grid.empty()) {
    return;
  }
  double lo = 1e300;
  double hi = -1e300;
  for (const auto& [name, curve] : series) {
    for (double v : curve->covered) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (hi <= lo) {
    hi = lo + 1;
  }
  static constexpr char kMarks[] = {'T', 'e', 'u', 'x', '#', '@'};
  std::vector<std::string> canvas(rows, std::string(cols, ' '));
  for (std::size_t s = 0; s < series.size(); ++s) {
    const CoverageCurve& curve = *series[s].second;
    const char mark = kMarks[s % sizeof kMarks];
    const std::uint64_t max_x = curve.grid.back();
    for (std::size_t i = 0; i < curve.grid.size(); ++i) {
      const auto col = static_cast<unsigned>(
          static_cast<double>(curve.grid[i]) / static_cast<double>(max_x) *
          (cols - 1));
      const auto rrow = static_cast<unsigned>(
          (curve.covered[i] - lo) / (hi - lo) * (rows - 1));
      canvas[rows - 1 - rrow][col] = mark;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%10.0f |", hi);
  os << buf << canvas[0] << "\n";
  for (unsigned r = 1; r + 1 < rows; ++r) {
    os << "           |" << canvas[r] << "\n";
  }
  std::snprintf(buf, sizeof buf, "%10.0f |", lo);
  os << buf << canvas[rows - 1] << "\n";
  os << "            " << std::string(cols, '-') << "\n";
  os << "            legend:";
  for (std::size_t s = 0; s < series.size(); ++s) {
    os << "  " << kMarks[s % sizeof kMarks] << "=" << series[s].first;
  }
  os << "\n";
}

void render_fig3(std::ostream& os, std::string_view core_display,
                 const std::map<std::string, CoverageCurve>& curves) {
  os << "Branch coverage vs #tests on " << core_display << "\n";
  if (curves.empty()) {
    return;
  }

  Table table([&] {
    std::vector<std::string> header{"#tests"};
    for (const auto& [policy, curve] : curves) {
      header.push_back(policy);
    }
    return header;
  }());

  const CoverageCurve& first = curves.begin()->second;
  for (std::size_t i = 0; i < first.grid.size(); ++i) {
    std::vector<std::string> row{std::to_string(first.grid[i])};
    for (const auto& [policy, curve] : curves) {
      row.push_back(i < curve.covered.size()
                        ? common::format_double(curve.covered[i], 1)
                        : "-");
    }
    table.add_row(std::move(row));
  }
  table.render(os);

  std::vector<std::pair<std::string, const CoverageCurve*>> series;
  for (const auto& [policy, curve] : curves) {
    series.emplace_back(policy, &curve);
  }
  ascii_plot(os, series);
  os << "(universe: " << first.universe << " instrumented branch points)\n";
}

void render_fig4(std::ostream& os, const std::vector<Fig4Row>& rows) {
  Table table({"Core", "Fuzzer", "Coverage Speedup", "Coverage Increment (%)"});
  for (const Fig4Row& row : rows) {
    bool first = true;
    for (const auto& [policy, speedup] : row.speedup) {
      const auto inc_it = row.increment_percent.find(policy);
      table.add_row({first ? row.core : "", policy,
                     common::format_speedup(speedup),
                     inc_it != row.increment_percent.end()
                         ? common::format_double(inc_it->second, 2) + "%"
                         : "-"});
      first = false;
    }
    table.add_rule();
  }
  table.render(os);
}

void ProgressObserver::on_step(const Campaign&, const fuzz::StepResult& step) {
  if (!step.mismatch || divergence_announced_) {
    return;
  }
  divergence_announced_ = true;
  os_ << "  first golden-model divergence at test #" << step.test_index << "\n";
}

void ProgressObserver::on_batch(const Campaign& campaign,
                                const BatchSnapshot& snapshot) {
  os_ << "  [" << snapshot.tests_executed << "] covered " << snapshot.covered
      << " / " << snapshot.universe << ", mismatches " << campaign.mismatches()
      << "\n";
}

}  // namespace mabfuzz::harness
