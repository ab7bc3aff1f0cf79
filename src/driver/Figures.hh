/**
 * @file
 * The paper's figures and tables as named spmcoh_run presets
 * (--figure=NAME). A preset is data: the spmcoh_run axis arguments
 * of its one sweep and the title of its csv/json report. The only
 * code in an entry is the renderer that prints the figure-shaped
 * table from the sweep's results.
 */

#ifndef SPMCOH_DRIVER_FIGURES_HH
#define SPMCOH_DRIVER_FIGURES_HH

#include <ostream>
#include <string>
#include <vector>

#include "driver/SweepRunner.hh"

namespace spmcoh
{

/** One paper figure or table. */
struct Figure
{
    const char *name;
    const char *description;
    /** Title of the --format=csv|json report. */
    const char *title;
    /** spmcoh_run axis arguments of the sweep; empty for the
     *  tables, which render without running a simulation. */
    std::vector<std::string> args;
    /** Prints the figure-shaped table of the sweep's results. */
    void (*render)(std::ostream &os, const SweepSpec &sweep,
                   const std::vector<ExperimentResult> &results);
};

/** Every preset, in the paper's order. */
const std::vector<Figure> &figures();

/** The preset called @p name; null when there is none. */
const Figure *findFigure(const std::string &name);

} // namespace spmcoh

#endif // SPMCOH_DRIVER_FIGURES_HH
