#include "harness/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "config/cli.hpp"
#include "workloads/workloads.hpp"

namespace gex::harness {

namespace {

/** An integer spec value in [1, 2^20] (a workload scale). */
int
scaleValue(const json::Value &v, const std::string &ctx)
{
    if (!v.isNumber() || v.number != std::floor(v.number) ||
        v.number < 1 || v.number > (1 << 20))
        throw ConfigError(ctx + ": 'scale' needs an integer in [1, 1048576]");
    return static_cast<int>(v.number);
}

WorkloadEntry
parseWorkload(const json::Value &v, const std::string &origin)
{
    if (v.isString())
        return {v.str, 0};
    std::string ctx = origin + ": workload entry";
    if (!v.isObject())
        throw ConfigError(ctx + " must be a name or {\"workload\": W, "
                                "\"scale\": N}");
    WorkloadEntry e;
    for (const auto &kv : v.members) {
        if (kv.first == "workload" && kv.second.isString())
            e.name = kv.second.str;
        else if (kv.first == "scale")
            e.scale = scaleValue(kv.second, ctx);
        else
            throw ConfigError(strprintf("%s: unexpected key '%s'",
                                        ctx.c_str(), kv.first.c_str()));
    }
    if (e.name.empty())
        throw ConfigError(ctx + " needs a \"workload\" name");
    return e;
}

} // namespace

void
Experiment::addOptions(cli::ArgParser &p)
{
    p.option("--suite", "S", "parboil | halloc | all (default parboil)",
             [this](const std::string &v) { suite = v; }, "suite");
    p.option("--workloads", "A,B,C",
             "explicit workload list (overrides --suite)",
             [this](const std::string &v) {
                 workloads.clear();
                 for (const std::string &w : cli::splitCsv(v))
                     workloads.push_back({w, 0});
             });
    p.specOption("workloads",
                 "workload list; an entry may be {\"workload\": W, "
                 "\"scale\": N}",
                 [this](const json::Value &v, const std::string &origin) {
                     workloads.clear();
                     if (v.isString()) {
                         for (const std::string &w : cli::splitCsv(v.str))
                             workloads.push_back({w, 0});
                         return;
                     }
                     if (!v.isArray())
                         throw ConfigError(origin + ": 'workloads' must "
                                                    "be a list");
                     for (const json::Value &item : v.items)
                         workloads.push_back(parseWorkload(item, origin));
                 });
    p.option("--schemes", "A,B,C",
             "shorthand for one scheme axis (default all five; not "
             "with axes)",
             [this](const std::string &v) { schemes = cli::splitCsv(v); },
             "schemes");
    p.option("--scale", "N",
             "scale of workloads that name none (default 1)",
             [this](const std::string &v) {
                 scale = cli::parseIntFlag("--scale", v, 1, 1 << 20);
             },
             "scale");
    p.specOption("axes",
                 "ordered grid axes: {\"knob\": K, \"values\": [...]} or "
                 "a list of labelled partial specs",
                 [this](const json::Value &v, const std::string &origin) {
                     if (!v.isArray() || v.items.empty())
                         throw ConfigError(origin + ": 'axes' must be a "
                                                    "non-empty list");
                     axes.clear();
                     for (std::size_t i = 0; i < v.items.size(); ++i)
                         axes.push_back(parseAxis(
                             v.items[i],
                             strprintf("%s: axes[%zu]", origin.c_str(),
                                       i)));
                 });
    p.specOption("normalize_to",
                 "{axis: label}: normalize every point to the point that "
                 "differs from it only on that axis",
                 [this](const json::Value &v, const std::string &origin) {
                     if (!v.isObject() || v.members.size() != 1 ||
                         !v.members.begin()->second.isString())
                         throw ConfigError(origin + ": 'normalize_to' must "
                                                    "be {\"axis\": "
                                                    "\"label\"}");
                     normalizeAxis = v.members.begin()->first;
                     normalizeLabel = v.members.begin()->second.str;
                 });
    p.specOption("note", "a line printed under the table",
                 [this](const json::Value &v, const std::string &origin) {
                     if (!v.isString())
                         throw ConfigError(origin +
                                           ": 'note' must be a string");
                     note = v.str;
                 });
}

Axis
Experiment::parseAxis(const json::Value &v, const std::string &origin)
{
    const config::KnobRegistry &reg = config::KnobRegistry::instance();
    Axis axis;
    if (v.isObject()) {
        const json::Value *knob = v.find("knob");
        const json::Value *values = v.find("values");
        if (!knob || !knob->isString() || !values || !values->isArray() ||
            values->items.empty() || v.members.size() != 2)
            throw ConfigError(origin + ": a knob axis is {\"knob\": K, "
                                       "\"values\": [...]}");
        const config::Knob *k = reg.find(knob->str);
        if (!k) {
            std::string hint = reg.suggest(knob->str);
            throw ConfigError(strprintf(
                "%s: unknown knob '%s'%s", origin.c_str(),
                knob->str.c_str(),
                hint.empty() ? ""
                             : strprintf(" (did you mean '%s'?)",
                                         hint.c_str())
                                   .c_str()));
        }
        axis.knob = k->name;
        for (const json::Value &item : values->items) {
            AxisLevel lv;
            lv.label = k->fromJson(origin + ": " + k->name, item)
                           .toString();
            lv.spec.kind = json::Value::Kind::Object;
            lv.spec.members[k->name] = item;
            axis.levels.push_back(std::move(lv));
        }
    } else if (v.isArray() && !v.items.empty()) {
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            const json::Value &item = v.items[i];
            const json::Value *label = item.find("label");
            if (!label || !label->isString() || label->str.empty())
                throw ConfigError(strprintf(
                    "%s level %zu: needs a non-empty \"label\"",
                    origin.c_str(), i));
            AxisLevel lv;
            lv.label = label->str;
            std::string ctx = strprintf("%s level '%s'", origin.c_str(),
                                        lv.label.c_str());
            lv.spec = item;
            lv.spec.members.erase("label");
            if (const json::Value *s = item.find("scale")) {
                lv.scale = scaleValue(*s, ctx);
                lv.spec.members.erase("scale");
            }
            config::RunParams scratch;
            reg.applySpec(scratch, lv.spec, ctx);
            axis.levels.push_back(std::move(lv));
        }
    } else {
        throw ConfigError(origin + ": an axis is {\"knob\": K, \"values\": "
                                   "[...]} or a non-empty list of levels");
    }
    std::set<std::string> seen;
    for (const AxisLevel &lv : axis.levels)
        if (!seen.insert(lv.label).second)
            throw ConfigError(strprintf("%s: duplicate level '%s'",
                                        origin.c_str(), lv.label.c_str()));
    return axis;
}

std::vector<RunSpec>
Experiment::expand(const config::RunParams &base)
{
    entries_ = workloads;
    if (entries_.empty()) {
        std::vector<std::string> names;
        if (suite == "parboil")
            names = workloads::parboilSuite();
        else if (suite == "halloc")
            names = workloads::hallocSuite();
        else if (suite == "all")
            names = workloads::allNames();
        else
            throw ConfigError(strprintf(
                "unknown suite '%s' (expected parboil | halloc | all)",
                suite.c_str()));
        for (const std::string &n : names)
            entries_.push_back({n, 0});
    }
    for (WorkloadEntry &e : entries_) {
        if (!workloads::exists(e.name))
            throw ConfigError(strprintf(
                "unknown workload '%s' (try --list)", e.name.c_str()));
        if (e.scale == 0)
            e.scale = scale;
    }

    axes_ = axes;
    std::string normAxis = normalizeAxis, normLabel = normalizeLabel;
    if (axes_.empty()) {
        // The --schemes shorthand: one scheme axis, normalized to its
        // first scheme unless the spec says otherwise.
        std::vector<std::string> list = schemes;
        if (list.empty())
            for (gpu::Scheme s : gpu::allSchemes())
                list.push_back(gpu::schemeName(s));
        std::string values;
        for (const std::string &s : list)
            values += (values.empty() ? "\"" : ", \"") + json::escape(s) + "\"";
        axes_.push_back(parseAxis(
            *json::parse("{\"knob\": \"scheme\", \"values\": [" + values + "]}"),
            "--schemes"));
        if (normAxis.empty()) {
            normAxis = "scheme";
            normLabel = axes_[0].levels[0].label;
        }
    } else if (!schemes.empty()) {
        throw ConfigError("--schemes is shorthand for one scheme axis; "
                          "this experiment declares its own axes");
    }

    normAxis_ = -1;
    if (!normAxis.empty()) {
        for (std::size_t a = 0; a < axes_.size(); ++a)
            if (axes_[a].knob == normAxis || std::to_string(a) == normAxis)
                normAxis_ = static_cast<int>(a);
        if (normAxis_ < 0)
            throw ConfigError(strprintf(
                "normalize_to: no axis '%s' (name a knob axis by its knob "
                "or any axis by its 0-based position)",
                normAxis.c_str()));
        const Axis &ax = axes_[static_cast<std::size_t>(normAxis_)];
        auto it = std::find_if(
            ax.levels.begin(), ax.levels.end(),
            [&](const AxisLevel &lv) { return lv.label == normLabel; });
        if (it == ax.levels.end())
            throw ConfigError(strprintf("normalize_to: axis '%s' has no "
                                        "level '%s'",
                                        normAxis.c_str(),
                                        normLabel.c_str()));
        normLevel_ = static_cast<std::size_t>(it - ax.levels.begin());
    }

    combos_ = 1;
    for (const Axis &ax : axes_)
        combos_ *= ax.levels.size();

    const config::KnobRegistry &reg = config::KnobRegistry::instance();
    std::vector<RunSpec> points;
    points.reserve(entries_.size() * combos_);
    for (const WorkloadEntry &e : entries_) {
        for (std::size_t c = 0; c < combos_; ++c) {
            config::RunParams p = base;
            RunSpec rs;
            rs.workload = e.name;
            rs.scale = e.scale;
            std::size_t stride = combos_;
            for (const Axis &ax : axes_) {
                stride /= ax.levels.size();
                const AxisLevel &lv = ax.levels[c / stride % ax.levels.size()];
                reg.applySpec(p, lv.spec, lv.label);
                if (lv.scale > 0)
                    rs.scale = lv.scale;
                rs.series = lv.label;
            }
            rs.cfg = p.cfg;
            rs.policy = p.policy;
            rs.group = e.name + rowSuffix(c / lastLevels());
            points.push_back(std::move(rs));
        }
    }
    return points;
}

std::string
Experiment::rowSuffix(std::size_t row) const
{
    std::string s;
    std::size_t stride = combos_ / lastLevels();
    for (std::size_t a = 0; a + 1 < axes_.size(); ++a) {
        stride /= axes_[a].levels.size();
        s += "/" + axes_[a].levels[row / stride % axes_[a].levels.size()]
                       .label;
    }
    return s;
}

std::string
Experiment::geomeanKey(std::size_t row, std::size_t col) const
{
    const std::string suffix = rowSuffix(row);
    const std::string &series = axes_.back().levels[col].label;
    return suffix.empty() ? series : suffix.substr(1) + "/" + series;
}

void
normalizeTo(std::vector<RunRecord> &runs,
            const std::vector<std::size_t> &base)
{
    for (std::size_t i = 0; i < runs.size(); ++i) {
        RunRecord &r = runs[i];
        const RunRecord &b = runs[base[i]];
        if (!r.ok() || !b.ok() || r.result.cycles == 0)
            continue;
        r.derived["normalized"] = static_cast<double>(b.result.cycles) /
                                  static_cast<double>(r.result.cycles);
    }
}

void
Experiment::normalize(std::vector<RunRecord> &runs) const
{
    if (normAxis_ < 0)
        return;
    std::size_t stride = combos_;
    for (int a = 0; a <= normAxis_; ++a)
        stride /= axes_[static_cast<std::size_t>(a)].levels.size();
    const std::size_t n =
        axes_[static_cast<std::size_t>(normAxis_)].levels.size();
    std::vector<std::size_t> base(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        base[i] = i - (i / stride % n) * stride + normLevel_ * stride;
    normalizeTo(runs, base);
}

std::map<std::string, double>
Experiment::geomeans(const std::vector<RunRecord> &runs) const
{
    std::map<std::string, std::vector<double>> cols;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        auto it = runs[i].derived.find("normalized");
        if (it == runs[i].derived.end() || it->second <= 0.0)
            continue;
        cols[geomeanKey(i % combos_ / lastLevels(), i % lastLevels())]
            .push_back(it->second);
    }
    std::map<std::string, double> out;
    for (const auto &kv : cols)
        out[kv.first] = geomean(kv.second);
    return out;
}

void
Experiment::printTable(const std::vector<RunRecord> &runs) const
{
    const std::size_t nCols = lastLevels();
    const std::size_t rowsPerWorkload = combos_ / nCols;
    const std::size_t nRows = runs.size() / nCols;
    const bool ratios = normAxis_ >= 0;
    const bool geoRows = ratios && entries_.size() > 1;
    const std::map<std::string, double> gms = geomeans(runs);
    // The base column (normalize_to on the last axis) shows cycles.
    auto baseCol = [&](std::size_t c) {
        return static_cast<std::size_t>(normAxis_) == axes_.size() - 1 &&
               c == normLevel_;
    };

    auto cell = [&](std::size_t i) -> std::string {
        const RunRecord &r = runs[i];
        if (!r.ok())
            return pointStatusName(r.status);
        if (!ratios || baseCol(i % nCols))
            return std::to_string(r.result.cycles);
        auto it = r.derived.find("normalized");
        return it == r.derived.end() ? "-" : strprintf("%.3f", it->second);
    };

    int rowW = 14;
    for (std::size_t r = 0; r < nRows; ++r)
        rowW = std::max(rowW,
                        static_cast<int>(runs[r * nCols].spec.groupLabel()
                                             .size()));
    for (std::size_t k = 0; geoRows && k < rowsPerWorkload; ++k)
        rowW = std::max(rowW, static_cast<int>(7 + rowSuffix(k).size()));
    int colW = 10;
    for (const AxisLevel &lv : axes_.back().levels)
        colW = std::max(colW, static_cast<int>(lv.label.size()));
    // Wide grids print in blocks of columns that fit 100 characters.
    const std::size_t perBlock = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::max(0, 100 - rowW) / (colW + 1)));

    for (std::size_t c0 = 0; c0 < nCols; c0 += perBlock) {
        const std::size_t c1 = std::min(nCols, c0 + perBlock);
        if (c0 > 0)
            std::printf("\n");
        std::printf("%-*s", rowW, "benchmark");
        for (std::size_t c = c0; c < c1; ++c)
            std::printf(" %*s", colW, axes_.back().levels[c].label.c_str());
        std::printf("\n");
        for (std::size_t r = 0; r < nRows; ++r) {
            std::printf("%-*s", rowW,
                        runs[r * nCols].spec.groupLabel().c_str());
            for (std::size_t c = c0; c < c1; ++c)
                std::printf(" %*s", colW, cell(r * nCols + c).c_str());
            std::printf("\n");
        }
        for (std::size_t k = 0; geoRows && k < rowsPerWorkload; ++k) {
            std::printf("%-*s", rowW, ("GEOMEAN" + rowSuffix(k)).c_str());
            for (std::size_t c = c0; c < c1; ++c) {
                auto it = gms.find(geomeanKey(k, c));
                std::printf(" %*s", colW,
                            baseCol(c) || it == gms.end()
                                ? ""
                                : strprintf("%.3f", it->second).c_str());
            }
            std::printf("\n");
        }
    }

    std::size_t dropped = 0;
    for (const RunRecord &r : runs)
        dropped += r.ok() ? 0 : 1;
    if (dropped)
        std::printf("note: %zu of %zu points did not complete and are "
                    "excluded from normalized columns and geomeans "
                    "(per-point status/error in the JSON export)\n",
                    dropped, runs.size());
    if (!note.empty())
        std::printf("\n%s\n", note.c_str());
}

} // namespace gex::harness
