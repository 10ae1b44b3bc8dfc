#pragma once
// Paper-style result rendering: Table I rows, Fig. 3 coverage series and
// ASCII curve plots, Fig. 4 speedup/increment tables — all keyed by policy
// name strings, so any registered fuzzer (including extensions) renders
// without code changes. Also home of the stock campaign observers the CLI
// and examples subscribe instead of poking fuzzer internals.

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/curves.hpp"
#include "soc/bugs.hpp"

namespace mabfuzz::harness {

/// One Table I row: baseline #tests plus each MABFuzz variant's speedup,
/// keyed by policy name.
struct Table1Row {
  soc::BugId bug{};
  double thehuzz_tests = 0.0;
  std::map<std::string, double> speedup;  // MABFuzz variants only
  std::map<std::string, bool> detected;
};

/// `columns` fixes the variant order; empty derives it from the first row.
void render_table1(std::ostream& os, const std::vector<Table1Row>& rows,
                   std::vector<std::string> columns = {});

/// Fig. 3: prints the sampled coverage series of every policy on one core,
/// then a compact ASCII plot.
void render_fig3(std::ostream& os, std::string_view core_display,
                 const std::map<std::string, CoverageCurve>& curves);

/// Fig. 4 rows (one core): speedup and increment per MABFuzz variant.
struct Fig4Row {
  std::string core;
  std::map<std::string, double> speedup;
  std::map<std::string, double> increment_percent;
};

void render_fig4(std::ostream& os, const std::vector<Fig4Row>& rows);

/// Small ASCII line plot (rows x cols) of one or more named series sharing
/// an x-grid; used by the Fig. 3 renderer and the examples.
void ascii_plot(std::ostream& os,
                const std::vector<std::pair<std::string, const CoverageCurve*>>& series,
                unsigned rows = 12, unsigned cols = 60);

/// Stock observer: streams one status line per coverage snapshot
/// ("[1000] covered 812 / 1209, mismatches 3") and announces the first
/// golden-model divergence. Subscribe and run — no hand-rolled loop.
class ProgressObserver : public CampaignObserver {
 public:
  explicit ProgressObserver(std::ostream& os) : os_(os) {}

  void on_step(const Campaign& campaign, const fuzz::StepResult& step) override;
  void on_batch(const Campaign& campaign, const BatchSnapshot& snapshot) override;

 private:
  std::ostream& os_;
  bool divergence_announced_ = false;
};

}  // namespace mabfuzz::harness
