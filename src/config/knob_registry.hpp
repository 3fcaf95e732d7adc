/**
 * @file
 * The knob registry: one declarative description of every
 * result-affecting configuration knob of the simulator — name, CLI
 * flag, type, default, range/enum validation, doc string, and the
 * getter/setter binding it to its target field in gpu::GpuConfig,
 * vm::VmPolicy or inject::InjectConfig.
 *
 * Every layer that consumes or produces configuration is derived from
 * this single enumeration (docs/CONFIGURATION.md):
 *
 *  - JSON experiment-spec files (`--config spec.json`) are validated
 *    through it, with unknown-key rejection and nearest-name
 *    suggestions;
 *  - the `gexsim_*` drivers' knob flags and `--help` knob section are
 *    generated from it (config/cli.hpp);
 *  - every output JSON document carries a `resolved_config` manifest
 *    emitted from it (writeManifest);
 *  - the campaign journal's result digest (harness::specDigest) is
 *    computed over its enumeration, so a newly registered knob can
 *    never silently be excluded from resume keying.
 *
 * Registering a knob here is therefore the whole integration surface
 * for a new scenario parameter: flags, specs, validation, provenance
 * and resume keying all follow from the one registration line.
 */

#ifndef GEX_CONFIG_KNOB_REGISTRY_HPP
#define GEX_CONFIG_KNOB_REGISTRY_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gpu/config.hpp"
#include "vm/memory_manager.hpp"

namespace gex::json {
class Writer;
struct Value;
} // namespace gex::json

namespace gex::config {

/**
 * Classic Levenshtein edit distance between two short names, shared by
 * every "did you mean" diagnostic (spec keys here, CLI flags in
 * config/cli.cpp).
 */
std::size_t editDistance(const std::string &a, const std::string &b);

/**
 * The complete result-affecting parameterization of one simulation:
 * the machine configuration plus the paging/injection policy. Every
 * registry knob targets a field reachable from here.
 */
struct RunParams {
    gpu::GpuConfig cfg;
    vm::VmPolicy policy = vm::VmPolicy::allResident();

    /** Paper Table 1 machine, everything resident, injection off. */
    static RunParams baseline() { return RunParams{}; }
};

enum class KnobType : std::uint8_t {
    Int,  ///< integer (validated range), carried as int64
    Real, ///< floating point (validated range)
    Bool, ///< true/false; CLI form `--flag` / `--no-flag`
    Enum, ///< one of a fixed set of canonical names
};

/** A typed knob value; exactly the member matching `type` is valid. */
struct KnobValue {
    KnobType type = KnobType::Int;
    std::int64_t i = 0;
    double r = 0.0;
    bool b = false;
    std::string e;

    static KnobValue ofInt(std::int64_t v);
    static KnobValue ofReal(double v);
    static KnobValue ofBool(bool v);
    static KnobValue ofEnum(std::string v);

    bool operator==(const KnobValue &o) const;
    bool operator!=(const KnobValue &o) const { return !(*this == o); }

    /** Canonical text form ("16", "0.01", "true", "replay-queue"). */
    std::string toString() const;
};

/** One registered knob. */
struct Knob {
    std::string name; ///< spec-file key ("sms", "inject.rate", ...)
    std::string flag; ///< CLI spelling ("--sms", "--inject-rate", ...)
    KnobType type = KnobType::Int;
    std::string doc; ///< one-line description (help text, doc table)

    std::int64_t imin = 0, imax = 0;           ///< KnobType::Int range
    double rmin = 0.0, rmax = 0.0;             ///< KnobType::Real range
    std::vector<std::string> enumValues;       ///< KnobType::Enum set

    /**
     * Execution-only: changes how a run executes but provably not its
     * results (check, check.violate). Excluded from the result digest
     * and the resolved_config manifest — a campaign resumes at any
     * value.
     */
    bool execOnly = false;
    /**
     * Preset macro: one setter writing several component knobs'
     * fields (policy, link). Settable via flag/spec like any knob but
     * excluded from the digest and the manifest, where its component
     * knobs already carry the exact state.
     */
    bool preset = false;

    std::function<KnobValue(const RunParams &)> get;
    std::function<void(RunParams &, const KnobValue &)> set;

    KnobValue def; ///< value in RunParams::baseline()

    /**
     * Parse @p text (a CLI flag value) into a validated KnobValue;
     * ConfigError mentioning @p context (the flag or "file.json: key
     * 'x'") on garbage, partial parses or range/enum violations.
     */
    KnobValue parseText(const std::string &context,
                        const std::string &text) const;

    /** Convert + validate a parsed JSON spec value; ConfigError. */
    KnobValue fromJson(const std::string &context,
                       const json::Value &v) const;

    /** "[1, 4096]", "[0, 1]", "true|false" or "a | b | c". */
    std::string rangeText() const;
};

/**
 * The registry proper: an immutable, ordered knob list built once.
 * Order is meaningful — spec files are applied in registration order,
 * so preset knobs (policy, link) are registered before the component
 * knobs that refine them.
 */
class KnobRegistry
{
  public:
    /** The process-wide registry (built on first use, then frozen). */
    static const KnobRegistry &instance();

    const std::vector<Knob> &knobs() const { return knobs_; }

    /** Lookup by spec key; nullptr when absent. */
    const Knob *find(const std::string &name) const;
    /** Lookup by CLI flag spelling; nullptr when absent. */
    const Knob *findFlag(const std::string &flag) const;

    /**
     * Nearest registered knob name to @p name by edit distance, for
     * "did you mean" diagnostics; empty when nothing is close.
     */
    std::string suggest(const std::string &name) const;

    /**
     * Apply a JSON experiment spec to @p p. @p text must parse to one
     * JSON object. Knob keys are validated and applied in registry
     * order; any other key is offered to @p extraKey (driver-specific
     * keys: workloads, schemes, ...) and, if unclaimed, rejected with
     * a one-line ConfigError naming @p origin, the key and the nearest
     * suggestion. @p extraKey may be null.
     */
    void applySpecText(
        RunParams &p, const std::string &text, const std::string &origin,
        const std::function<bool(const std::string &key,
                                 const json::Value &v)> &extraKey = {},
        const std::function<std::string(const std::string &key)>
            &extraSuggest = {}) const;

    /** applySpecText on an already parsed JSON value. */
    void applySpec(
        RunParams &p, const json::Value &root, const std::string &origin,
        const std::function<bool(const std::string &key,
                                 const json::Value &v)> &extraKey = {},
        const std::function<std::string(const std::string &key)>
            &extraSuggest = {}) const;

    /** Read @p path and applySpecText; ConfigError when unreadable. */
    void applySpecFile(
        RunParams &p, const std::string &path,
        const std::function<bool(const std::string &key,
                                 const json::Value &v)> &extraKey = {},
        const std::function<std::string(const std::string &key)>
            &extraSuggest = {}) const;

    /**
     * Emit the resolved_config provenance manifest of @p p: one JSON
     * object member per digested knob (everything except presets and
     * execution-only knobs), in registry order. Feeding the object
     * back through applySpecText reproduces @p p's result-affecting
     * state exactly.
     */
    void writeManifest(json::Writer &w, const RunParams &p) const;

    /**
     * FNV-1a digest over (name, typed value) of every digested knob
     * of @p p — the registry-enumerated replacement for a hand-listed
     * field digest. Equal digests guarantee identical results for the
     * same (workload, scale).
     */
    std::uint64_t resultDigest(const RunParams &p) const;

    /**
     * Digest of the knob *schema* (names, flags, types, ranges,
     * defaults): campaign provenance for --version, and the doc-drift
     * guard's identity of the registered knob set.
     */
    std::uint64_t registryDigest() const;

    /** The generated --help knob section. */
    std::string helpText() const;

    /**
     * The full knob reference as a markdown table (name, flag, type,
     * default, range, doc) — `--dump-knobs` output, and the generated
     * table in docs/CONFIGURATION.md that CI diffs against it.
     */
    std::string markdownTable() const;

  private:
    KnobRegistry();

    void integer(std::string name, std::string doc, std::int64_t lo,
                 std::int64_t hi,
                 std::function<std::int64_t(const RunParams &)> get,
                 std::function<void(RunParams &, std::int64_t)> set,
                 std::string flag = {}, bool execOnly = false);
    void real(std::string name, std::string doc, double lo, double hi,
              std::function<double(const RunParams &)> get,
              std::function<void(RunParams &, double)> set,
              std::string flag = {});
    void boolean(std::string name, std::string doc,
                 std::function<bool(const RunParams &)> get,
                 std::function<void(RunParams &, bool)> set,
                 std::string flag = {}, bool execOnly = false);
    void enumeration(std::string name, std::string doc,
                     std::vector<std::string> values,
                     std::function<std::string(const RunParams &)> get,
                     std::function<void(RunParams &, const std::string &)>
                         set,
                     std::string flag = {}, bool preset = false,
                     bool execOnly = false);
    void finish(Knob k);

    std::vector<Knob> knobs_;
};

} // namespace gex::config

#endif // GEX_CONFIG_KNOB_REGISTRY_HPP
