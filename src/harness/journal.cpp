#include "harness/journal.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "config/knob_registry.hpp"

namespace gex::harness {

namespace {

/**
 * FNV-1a accumulator. Every value is hashed with a length/tag prefix
 * baked into the field order below, so reordered or merged fields
 * cannot collide by concatenation.
 */
struct Fnv {
    std::uint64_t h = 14695981039346656037ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const unsigned char *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 1099511628211ull;
        }
    }
    void
    u64(std::uint64_t v)
    {
        // Byte-serialize explicitly (not memcpy of the in-memory
        // representation) so the digest is endian-independent.
        unsigned char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        bytes(b, 8);
    }
    void i(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void
    s(const std::string &v)
    {
        u64(v.size());
        bytes(v.data(), v.size());
    }
};

PointStatus
pointStatusFromName(const std::string &name, bool *ok)
{
    *ok = true;
    if (name == "ok")
        return PointStatus::Ok;
    if (name == "failed")
        return PointStatus::Failed;
    if (name == "livelock")
        return PointStatus::Livelock;
    if (name == "budget")
        return PointStatus::Budget;
    *ok = false;
    return PointStatus::Failed;
}

std::string
digestHex(std::uint64_t d)
{
    return strprintf("%016llx", static_cast<unsigned long long>(d));
}

std::string
mapKey(const RunSpec &spec)
{
    return pointKey(spec) + "#" + digestHex(specDigest(spec));
}

} // namespace

std::string
pointKey(const RunSpec &spec)
{
    // Human-readable coordinates matching the report row fields.
    // inject rate uses json::formatNumber so the text is an exact
    // (round-trippable) spelling of the double.
    return strprintf(
        "%s@%d|%s|%s|%s|%s|%s:%s:%llu", spec.workload.c_str(), spec.scale,
        spec.groupLabel().c_str(), spec.seriesLabel().c_str(),
        gpu::schemeName(spec.cfg.scheme), vm::policyName(spec.policy),
        inject::modelName(spec.policy.inject.model),
        json::formatNumber(spec.policy.inject.rate).c_str(),
        static_cast<unsigned long long>(spec.policy.inject.seed));
}

std::uint64_t
specDigest(const RunSpec &spec)
{
    // The config contribution is the knob registry's resultDigest:
    // every digested knob (everything that can change the recorded
    // outcome of a point, including the watchdog/budget knobs that
    // decide how a non-terminating point is classified) hashed as
    // (name, typed value) in registry order. Execution-only knobs
    // (--check) are excluded by the registry, and the engine's --jobs
    // never reaches a spec: neither changes results. The group/series
    // labels are excluded too: they are naming only (and already part
    // of the point key). A new knob registration automatically
    // lands here; it can never silently be excluded from resume
    // keying. Hashing names alongside values also means a journal
    // written before a knob existed never resumes against a binary
    // that has it (the points safely re-run).
    Fnv f;
    f.s(spec.workload);
    f.i(spec.scale);
    config::RunParams params;
    params.cfg = spec.cfg;
    params.policy = spec.policy;
    f.u64(config::KnobRegistry::instance().resultDigest(params));
    return f.h;
}

CampaignJournal::CampaignJournal(std::string path)
    : path_(std::move(path))
{}

std::size_t
CampaignJournal::load()
{
    if (!active())
        return 0;
    std::ifstream is(path_);
    if (!is)
        return 0; // no journal yet: a fresh campaign
    std::lock_guard<std::mutex> lock(mu_);
    std::string line;
    std::size_t loaded = 0, lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::string perr;
        std::unique_ptr<json::Value> v = json::parse(line, &perr);
        bool ok = false;
        if (v && v->isObject()) {
            const json::Value *key = v->find("key");
            const json::Value *digest = v->find("digest");
            const json::Value *status = v->find("status");
            if (key && key->isString() && digest && digest->isString() &&
                status && status->isString()) {
                bool known = false;
                RunRecord rec;
                rec.status =
                    pointStatusFromName(status->asString(), &known);
                if (known) {
                    const json::Value *f;
                    if ((f = v->find("cycles")) && f->isNumber())
                        rec.result.cycles =
                            static_cast<Cycle>(f->number);
                    if ((f = v->find("instructions")) && f->isNumber())
                        rec.result.instructions =
                            static_cast<std::uint64_t>(f->number);
                    if ((f = v->find("error")) && f->isString())
                        rec.error = f->str;
                    if ((f = v->find("attempts")) && f->isNumber())
                        rec.attempts = static_cast<int>(f->number);
                    if ((f = v->find("stats")) && f->isObject())
                        for (const auto &kv : f->members)
                            if (kv.second.isNumber())
                                rec.result.stats.set(kv.first,
                                                     kv.second.number);
                    Entry &e = entries_[key->asString() + "#" +
                                        digest->asString()];
                    e.line = line;
                    e.rec = std::move(rec);
                    ok = true;
                    ++loaded;
                }
            }
        }
        if (!ok)
            logf(LogLevel::Warn,
                 "journal %s line %zu unreadable (%s); skipping it",
                 path_.c_str(), lineno,
                 perr.empty() ? "unexpected shape" : perr.c_str());
    }
    return loaded;
}

bool
CampaignJournal::lookup(const RunSpec &spec, RunRecord *out) const
{
    if (!active())
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(mapKey(spec));
    if (it == entries_.end())
        return false;
    out->result = it->second.rec.result;
    out->status = it->second.rec.status;
    out->error = it->second.rec.error;
    out->attempts = it->second.rec.attempts;
    return true;
}

void
CampaignJournal::record(const RunRecord &rec)
{
    if (!active())
        return;
    std::ostringstream os;
    json::Writer w(os, -1); // compact: one line per point
    w.beginObject();
    w.key("key").value(pointKey(rec.spec));
    w.key("digest").value(digestHex(specDigest(rec.spec)));
    w.key("status").value(pointStatusName(rec.status));
    w.key("attempts").value(rec.attempts);
    w.key("error").value(rec.error);
    w.key("cycles").value(static_cast<std::uint64_t>(rec.result.cycles));
    w.key("instructions").value(rec.result.instructions);
    w.key("stats");
    rec.result.stats.writeJson(w);
    w.endObject();

    Entry e;
    e.line = os.str();
    e.rec.result = rec.result;
    e.rec.status = rec.status;
    e.rec.error = rec.error;
    e.rec.attempts = rec.attempts;

    std::lock_guard<std::mutex> lock(mu_);
    entries_[mapKey(rec.spec)] = std::move(e);
    writeAllLocked();
}

std::size_t
CampaignJournal::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

void
CampaignJournal::writeAllLocked() const
{
    // Rewrite the whole document to a sibling tmp file and rename it
    // over the journal: readers (and a resume after SIGKILL) only ever
    // see a complete, parseable JSONL document.
    const std::string tmp = path_ + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            throw ConfigError(strprintf(
                "cannot open journal temp file '%s' for writing",
                tmp.c_str()));
        for (const auto &kv : entries_)
            os << kv.second.line << "\n";
        os.flush();
        if (!os)
            throw ConfigError(
                strprintf("short write to journal temp file '%s'",
                          tmp.c_str()));
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0)
        throw ConfigError(strprintf("cannot rename '%s' over '%s'",
                                    tmp.c_str(), path_.c_str()));
}

} // namespace gex::harness
