/**
 * @file
 * Figure 11: performance impact of the setup instructions
 * (setBranchId/setDependency occupy fetch slots and are dropped at
 * decode) versus a perfect design that needs no setup instructions.
 * Paper result: on average only a 3% performance overhead.
 */

#include <cstdio>

#include "common/stats.h"
#include "common/table.h"
#include "experiments.h"

namespace noreba::bench {

using namespace noreba::benchutil;

void
registerFig11SetupOverhead()
{
    ExperimentSpec spec;
    spec.name = "fig11_setup_overhead";
    spec.title = "Figure 11 (setup-instruction overhead)";
    spec.description = "Noreba with setup instructions vs a perfect "
                       "design with the same guard information and no "
                       "setup fetches";

    spec.plan = [](ExperimentPlan &plan) {
        for (const auto &name : selectedWorkloads()) {
            CoreConfig cfg = skylakeConfig();
            cfg.commitMode = CommitMode::Noreba;
            plan.add(name, "setup", job(name, cfg));
            plan.add(name, "perfect",
                     job(name, cfg, /*annotate=*/true,
                         /*stripSetups=*/true));
        }
    };

    spec.report = [](const ExperimentResults &r) {
        TextTable table;
        table.setHeader({"benchmark", "setup insts", "fetch overhead",
                         "cycles (setup)", "cycles (perfect)",
                         "perf overhead"});
        Geomean geo;
        for (const auto &name : selectedWorkloads()) {
            const CoreStats &sWith = r.at(name, "setup");
            const CoreStats &sPerf = r.at(name, "perfect");
            // The setup-instruction counts come from the trace itself;
            // the bundle is shared process-wide, so this re-fetch is a
            // cache hit. Copied: the view is a temporary.
            const TraceSummary sum = bundleFor(name)->view().summary();
            double fetchOverhead =
                sum.dynInsts ? static_cast<double>(sum.setupInsts) /
                                   static_cast<double>(sum.dynInsts)
                             : 0.0;
            double perf = static_cast<double>(sWith.cycles) /
                              static_cast<double>(sPerf.cycles) -
                          1.0;
            geo.sample(static_cast<double>(sWith.cycles) /
                       static_cast<double>(sPerf.cycles));
            table.addRow({name, std::to_string(sum.setupInsts),
                          fmtPercent(fetchOverhead),
                          std::to_string(sWith.cycles),
                          std::to_string(sPerf.cycles),
                          fmtPercent(perf)});
        }
        std::printf("%s\n", table.render().c_str());
        std::printf("geomean performance overhead: %s (paper: ~3%%)\n",
                    fmtPercent(geo.value() - 1.0).c_str());
    };

    registerExperiment(std::move(spec));
}

} // namespace noreba::bench
