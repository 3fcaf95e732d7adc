/**
 * @file
 * Experiment grids as data: the workloads of a sweep (each with an
 * optional scale), an ordered list of axes whose levels are partial
 * knob specs, and the level every point is normalized to. gexsim-sweep
 * reads one from `--config` spec files (the paper's figures live in
 * experiments/; format in docs/CONFIGURATION.md, "Experiment grids"),
 * expands it onto the SweepEngine, and prints it as one table.
 *
 * Grid shape: points are workload-major, then the axes in order, the
 * last axis varying fastest. A table row is a workload plus one level
 * of every axis but the last (RunSpec::group, "sgemm/nvlink"); a column
 * is a level of the last axis (RunSpec::series, "ideal"). Labels are
 * cosmetic: normalization and the GEOMEAN rows follow grid
 * coordinates, so repeated labels cannot pair the wrong points.
 */

#ifndef GEX_HARNESS_EXPERIMENT_HPP
#define GEX_HARNESS_EXPERIMENT_HPP

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "config/knob_registry.hpp"
#include "harness/sweep.hpp"

namespace gex::cli {
class ArgParser;
}

namespace gex::harness {

/** One workload of a grid. */
struct WorkloadEntry {
    std::string name;
    int scale = 0; ///< 0: the experiment's default scale
};

/** One level of an axis: its label and the partial spec it applies. */
struct AxisLevel {
    std::string label;
    int scale = 0; ///< > 0: overrides the workload's scale
    /** Registry knobs only; validated when the axis is parsed. */
    json::Value spec;
};

/** An axis of a grid. */
struct Axis {
    /** The knob of a knob axis; empty for a labelled axis. */
    std::string knob;
    std::vector<AxisLevel> levels;
};

class Experiment
{
  public:
    // --- What the spec keys and flags declare ---------------------------
    /** Explicit workloads; empty: every workload of @ref suite. */
    std::vector<WorkloadEntry> workloads;
    std::string suite = "parboil";
    int scale = 1; ///< scale of entries that name none
    /** Shorthand for one scheme axis; only valid without @ref axes. */
    std::vector<std::string> schemes;
    std::vector<Axis> axes;
    /** normalize_to: an axis (its knob or 0-based position), a label. */
    std::string normalizeAxis, normalizeLabel;
    std::string note; ///< printed under the table

    /**
     * Register the experiment's flags (--suite, --workloads, --schemes,
     * --scale) and spec keys (those four plus axes, normalize_to and
     * note) on @p p.
     */
    void addOptions(cli::ArgParser &p);

    /**
     * Parse one element of `axes`: {"knob": K, "values": [...]} or a
     * list of {"label": L, "scale"?: N, <knob>: <value>...}. Every
     * level is validated through the knob registry; ConfigError names
     * @p origin, the level and the nearest knob.
     */
    static Axis parseAxis(const json::Value &v, const std::string &origin);

    /**
     * Resolve the declaration (suite, default scale, the scheme
     * shorthand, normalize_to) and return the grid's points in order,
     * each starting from @p base. ConfigError on an unknown workload, a
     * scheme list next to axes, or a normalize_to naming no level.
     */
    std::vector<RunSpec> expand(const config::RunParams &base);

    // normalize(), geomeans() and printTable() describe the grid of the
    // last expand(), whose points @p runs must hold in order.

    /**
     * Set derived["normalized"] = base.cycles / run.cycles on every
     * point of @p runs (expand() order), where base is the point that
     * differs from it only on the normalize_to axis. A point whose run
     * or base did not complete gets no value. No-op without
     * normalize_to.
     */
    void normalize(std::vector<RunRecord> &runs) const;

    /**
     * Geometric mean of derived["normalized"] over the workloads, per
     * table column: keyed "<row levels>/<series>", or just the series
     * for a one-axis grid.
     */
    std::map<std::string, double>
    geomeans(const std::vector<RunRecord> &runs) const;

    /** Print the table, the GEOMEAN rows and the note to stdout. */
    void printTable(const std::vector<RunRecord> &runs) const;

  private:
    std::size_t lastLevels() const { return axes_.back().levels.size(); }
    /** Label of row @p row without its workload ("/nvlink"). */
    std::string rowSuffix(std::size_t row) const;
    /** geomeans() key of column @p col in rows like @p row. */
    std::string geomeanKey(std::size_t row, std::size_t col) const;

    std::vector<WorkloadEntry> entries_; ///< resolved workloads
    std::vector<Axis> axes_;            ///< resolved axes
    int normAxis_ = -1;
    std::size_t normLevel_ = 0;
    std::size_t combos_ = 1; ///< level combinations per workload
};

/**
 * derived["normalized"] = runs[base[i]].cycles / runs[i].cycles for
 * every i whose run and base both completed (with nonzero cycles).
 */
void normalizeTo(std::vector<RunRecord> &runs,
                 const std::vector<std::size_t> &base);

} // namespace gex::harness

#endif // GEX_HARNESS_EXPERIMENT_HPP
