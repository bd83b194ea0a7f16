#include "estimate/cache_io.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>
#include <vector>

#include "estimate/coherence_audit.h"

namespace scalehls {

namespace {

constexpr char kMagic[8] = {'S', 'H', 'L', 'S', 'E', 'S', 'T', 'C'};

/** FNV-1a over the payload: cheap, deterministic, and enough to turn a
 * torn write or bit rot into a clean Corrupt verdict (the format guards
 * against accidents, not adversaries — the cache feeds a validated
 * pipeline either way). */
uint64_t
checksum(std::string_view bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Little-endian fixed-width encoder into a growing byte string. */
class Writer
{
  public:
    void
    u8(uint8_t v)
    {
        out_.push_back(static_cast<char>(v));
    }
    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void
    i64(int64_t v)
    {
        u64(static_cast<uint64_t>(v));
    }
    void
    boolean(bool v)
    {
        u8(v ? 1 : 0);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        out_.append(s);
    }

    void
    resources(const ResourceUsage &r)
    {
        i64(r.dsp);
        i64(r.lut);
        i64(r.bram18k);
        i64(r.memoryBits);
    }

    void
    qor(const QoRResult &q)
    {
        i64(q.latency);
        i64(q.interval);
        resources(q.resources);
        boolean(q.feasible);
    }

    void
    profile(const OpProfile &p)
    {
        i64(p.latency);
        i64(p.ii);
        i64(p.dsp);
        i64(p.lut);
    }

    void
    band(const BandEstimate &b)
    {
        i64(b.latency);
        i64(b.interval);
        boolean(b.feasible);
        i64(b.memPortII);
        resources(b.pipelinedCompute);
        u64(b.sequentialOps.size());
        for (const auto &entry : b.sequentialOps) {
            str(entry.first);
            i64(entry.second);
        }
        u64(b.profiles.size());
        for (const auto &entry : b.profiles) {
            str(entry.first);
            profile(entry.second);
        }
        i64(b.loops);
        i64(b.calls);
    }

    void
    partitionPlan(const PartitionPlan &p)
    {
        u64(p.kinds.size());
        for (PartitionKind kind : p.kinds)
            u8(static_cast<uint8_t>(kind));
        u64(p.factors.size());
        for (int64_t factor : p.factors)
            i64(factor);
    }

    void
    schedule(const BandScheduleEntry &e)
    {
        band(e.estimate);
        u64(e.memrefs.size());
        for (const auto &m : e.memrefs) {
            u32(m.extId);
            boolean(m.read);
            boolean(m.write);
            u64(m.relevant.size());
            for (bool bit : m.relevant)
                boolean(bit);
            partitionPlan(m.contribution);
            partitionPlan(m.assumed);
        }
        str(e.origin);
    }

    void
    plan(const BandPlanOutcome &p)
    {
        boolean(p.materializable);
        boolean(p.composable);
        str(p.digest);
        u64(p.extMap.size());
        for (unsigned id : p.extMap)
            u32(id);
    }

    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/** Bounds-checked mirror of Writer: any overrun or bad tag latches
 * ok() false and makes every further read return a default — callers
 * check once at the end and treat failure as Corrupt. */
class Reader
{
  public:
    explicit Reader(std::string_view data) : data_(data) {}

    bool ok() const { return ok_; }
    bool atEnd() const { return pos_ == data_.size(); }

    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return static_cast<uint8_t>(data_[pos_++]);
    }
    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(
                     static_cast<unsigned char>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }
    uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(
                     static_cast<unsigned char>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }
    int64_t
    i64()
    {
        return static_cast<int64_t>(u64());
    }
    bool
    boolean()
    {
        uint8_t v = u8();
        if (v > 1)
            ok_ = false;
        return v == 1;
    }
    std::string
    str()
    {
        uint64_t n = u64();
        if (!need(n))
            return std::string();
        std::string s(data_.substr(pos_, n));
        pos_ += n;
        return s;
    }
    /** A collection size: additionally bounded by the bytes remaining
     * (each element costs >= 1 byte), so a corrupt length cannot drive
     * a multi-gigabyte reserve before the overrun is noticed. */
    uint64_t
    count()
    {
        uint64_t n = u64();
        if (n > data_.size() - pos_)
            ok_ = false;
        return ok_ ? n : 0;
    }

    ResourceUsage
    resources()
    {
        ResourceUsage r;
        r.dsp = i64();
        r.lut = i64();
        r.bram18k = i64();
        r.memoryBits = i64();
        return r;
    }

    QoRResult
    qor()
    {
        QoRResult q;
        q.latency = i64();
        q.interval = i64();
        q.resources = resources();
        q.feasible = boolean();
        return q;
    }

    OpProfile
    profile()
    {
        OpProfile p;
        p.latency = static_cast<int>(i64());
        p.ii = static_cast<int>(i64());
        p.dsp = static_cast<int>(i64());
        p.lut = static_cast<int>(i64());
        return p;
    }

    BandEstimate
    band()
    {
        BandEstimate b;
        b.latency = i64();
        b.interval = i64();
        b.feasible = boolean();
        b.memPortII = i64();
        b.pipelinedCompute = resources();
        for (uint64_t i = 0, n = count(); ok_ && i < n; ++i) {
            std::string key = str();
            b.sequentialOps[key] = i64();
        }
        for (uint64_t i = 0, n = count(); ok_ && i < n; ++i) {
            std::string key = str();
            b.profiles[key] = profile();
        }
        b.loops = i64();
        b.calls = i64();
        return b;
    }

    PartitionPlan
    partitionPlan()
    {
        PartitionPlan p;
        for (uint64_t i = 0, n = count(); ok_ && i < n; ++i) {
            uint8_t kind = u8();
            if (kind > static_cast<uint8_t>(PartitionKind::Block)) {
                ok_ = false;
                break;
            }
            p.kinds.push_back(static_cast<PartitionKind>(kind));
        }
        for (uint64_t i = 0, n = count(); ok_ && i < n; ++i)
            p.factors.push_back(i64());
        return p;
    }

    BandScheduleEntry
    schedule()
    {
        BandScheduleEntry e;
        e.estimate = band();
        for (uint64_t i = 0, n = count(); ok_ && i < n; ++i) {
            BandScheduleEntry::MemrefInfo m;
            m.extId = u32();
            m.read = boolean();
            m.write = boolean();
            for (uint64_t j = 0, k = count(); ok_ && j < k; ++j)
                m.relevant.push_back(boolean());
            m.contribution = partitionPlan();
            m.assumed = partitionPlan();
            e.memrefs.push_back(std::move(m));
        }
        e.origin = str();
        return e;
    }

    BandPlanOutcome
    plan()
    {
        BandPlanOutcome p;
        p.materializable = boolean();
        p.composable = boolean();
        p.digest = str();
        for (uint64_t i = 0, n = count(); ok_ && i < n; ++i)
            p.extMap.push_back(u32());
        return p;
    }

  private:
    bool
    need(uint64_t n)
    {
        if (!ok_ || n > data_.size() - pos_) {
            ok_ = false;
            return false;
        }
        return true;
    }

    std::string_view data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** Export one tier in sorted key order (forEach's shard order depends
 * on the hash; sorting makes snapshots a pure function of contents). */
template <typename Value, typename ForEach>
std::vector<std::pair<std::string, Value>>
sortedEntries(ForEach &&for_each)
{
    std::vector<std::pair<std::string, Value>> entries;
    for_each([&](const std::string &key, const Value &value) {
        entries.emplace_back(key, value);
    });
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return entries;
}

CacheLoadResult
reject(CacheLoadStatus status, std::string message)
{
    CacheLoadResult result;
    result.status = status;
    result.message = std::move(message);
    return result;
}

} // namespace

std::string
cacheSnapshotSalt()
{
    // Manual schema version: bump when the digest SERIALIZATION changes
    // in a way the registries and the hash fingerprint below cannot see
    // (e.g. TreeSerializer traversal order).
    std::string salt = "digest-schema-1";
    salt += "|excluded:";
    for (const std::string &attr : digestExcludedAttrs()) {
        salt += attr;
        salt += ',';
    }
    salt += "|relevant:";
    for (const std::string &attr : estimateRelevantAttrs()) {
        salt += attr;
        salt += ',';
    }
    salt += "|hash:";
    salt += digestHashFingerprint();
    return salt;
}

std::string
encodeEstimateCache(const EstimateCache &cache, uint32_t format_version,
                    const std::string &salt)
{
    Writer payload;

    auto funcs = sortedEntries<QoRResult>(
        [&](auto &&fn) { cache.forEachFunc(fn); });
    payload.u8('F');
    payload.u64(funcs.size());
    for (const auto &entry : funcs) {
        payload.str(entry.first);
        payload.qor(entry.second);
    }

    auto bands = sortedEntries<BandEstimate>(
        [&](auto &&fn) { cache.forEachBand(fn); });
    payload.u8('B');
    payload.u64(bands.size());
    for (const auto &entry : bands) {
        payload.str(entry.first);
        payload.band(entry.second);
    }

    auto schedules = sortedEntries<BandScheduleEntry>(
        [&](auto &&fn) { cache.forEachSchedule(fn); });
    payload.u8('S');
    payload.u64(schedules.size());
    for (const auto &entry : schedules) {
        payload.str(entry.first);
        payload.schedule(entry.second);
    }

    auto plans = sortedEntries<BandPlanOutcome>(
        [&](auto &&fn) { cache.forEachPlan(fn); });
    payload.u8('P');
    payload.u64(plans.size());
    for (const auto &entry : plans) {
        payload.str(entry.first);
        payload.plan(entry.second);
    }

    std::string body = payload.take();

    Writer out;
    for (char c : kMagic)
        out.u8(static_cast<uint8_t>(c));
    out.u32(format_version);
    out.str(salt.empty() ? cacheSnapshotSalt() : salt);
    out.u64(body.size());
    out.u64(checksum(body));
    std::string bytes = out.take();
    bytes += body;
    return bytes;
}

CacheLoadResult
decodeEstimateCache(EstimateCache &cache, std::string_view bytes)
{
    Reader header(bytes);
    for (char expected : kMagic) {
        if (header.u8() != static_cast<uint8_t>(expected) || !header.ok())
            return reject(CacheLoadStatus::Corrupt,
                          "not an estimate-cache snapshot (bad magic)");
    }
    uint32_t version = header.u32();
    if (!header.ok())
        return reject(CacheLoadStatus::Corrupt, "truncated header");
    if (version != kCacheSnapshotFormatVersion)
        return reject(CacheLoadStatus::VersionMismatch,
                      "snapshot format version " + std::to_string(version) +
                          " != supported " +
                          std::to_string(kCacheSnapshotFormatVersion));
    std::string salt = header.str();
    if (!header.ok())
        return reject(CacheLoadStatus::Corrupt, "truncated header");
    if (salt != cacheSnapshotSalt())
        return reject(CacheLoadStatus::SaltMismatch,
                      "snapshot digest schema differs from this build "
                      "(keys would not be comparable)");
    uint64_t body_size = header.u64();
    uint64_t body_sum = header.u64();
    if (!header.ok())
        return reject(CacheLoadStatus::Corrupt, "truncated header");
    // The body is exactly the bytes after the fixed-layout header
    // (magic, version, length-prefixed salt, size, checksum).
    size_t header_size = sizeof(kMagic) + 4 + 8 + salt.size() + 8 + 8;
    std::string_view body = bytes.substr(header_size);
    if (body.size() != body_size)
        return reject(CacheLoadStatus::Corrupt,
                      "payload size mismatch (truncated file)");
    if (checksum(body) != body_sum)
        return reject(CacheLoadStatus::Corrupt,
                      "payload checksum mismatch (torn write or bit rot)");

    // Decode the full payload into local buffers BEFORE the first
    // insert: a corrupt section must not leave the cache half-loaded.
    Reader reader(body);
    std::vector<std::pair<std::string, QoRResult>> funcs;
    std::vector<std::pair<std::string, BandEstimate>> bands;
    std::vector<std::pair<std::string, BandScheduleEntry>> schedules;
    std::vector<std::pair<std::string, BandPlanOutcome>> plans;

    if (reader.u8() != 'F')
        return reject(CacheLoadStatus::Corrupt, "bad function-tier tag");
    for (uint64_t i = 0, n = reader.count(); reader.ok() && i < n; ++i) {
        std::string key = reader.str();
        funcs.emplace_back(std::move(key), reader.qor());
    }
    if (reader.u8() != 'B')
        return reject(CacheLoadStatus::Corrupt, "bad band-tier tag");
    for (uint64_t i = 0, n = reader.count(); reader.ok() && i < n; ++i) {
        std::string key = reader.str();
        bands.emplace_back(std::move(key), reader.band());
    }
    if (reader.u8() != 'S')
        return reject(CacheLoadStatus::Corrupt, "bad schedule-tier tag");
    for (uint64_t i = 0, n = reader.count(); reader.ok() && i < n; ++i) {
        std::string key = reader.str();
        schedules.emplace_back(std::move(key), reader.schedule());
    }
    if (reader.u8() != 'P')
        return reject(CacheLoadStatus::Corrupt, "bad plan-tier tag");
    for (uint64_t i = 0, n = reader.count(); reader.ok() && i < n; ++i) {
        std::string key = reader.str();
        plans.emplace_back(std::move(key), reader.plan());
    }
    if (!reader.ok() || !reader.atEnd())
        return reject(CacheLoadStatus::Corrupt,
                      "truncated or trailing payload bytes");

    // Bulk-load: plain first-writer-wins inserts, so a snapshot loaded
    // into a warm cache never overwrites newer entries, and the stats
    // counters (hits/misses) stay untouched — this run's hit rate
    // starts from zero lookups.
    CacheLoadResult result;
    result.status = CacheLoadStatus::Loaded;
    for (auto &entry : funcs)
        cache.insert(entry.first, entry.second);
    for (auto &entry : bands)
        cache.insertBand(entry.first, entry.second);
    for (auto &entry : schedules)
        cache.insertSchedule(entry.first, entry.second);
    for (auto &entry : plans)
        cache.insertPlan(entry.first, entry.second);
    result.funcEntries = funcs.size();
    result.bandEntries = bands.size();
    result.scheduleEntries = schedules.size();
    result.planEntries = plans.size();
    return result;
}

bool
saveEstimateCache(const EstimateCache &cache, const std::string &path,
                  std::string *error)
{
    std::string bytes = encodeEstimateCache(cache);
    // One temp file per writer (process id + per-process call number),
    // next to the target so the rename stays within one filesystem: two
    // concurrent savers to one path never write or rename each other's
    // file.
    static std::atomic<uint64_t> save_calls{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                      std::to_string(save_calls.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            if (error)
                *error = "cannot open " + tmp + " for writing";
            return false;
        }
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out) {
            if (error)
                *error = "short write to " + tmp;
            out.close();
            std::remove(tmp.c_str());
            return false;
        }
    }
    // Atomic publish: a concurrent loader sees either the old snapshot
    // or the new one, never a truncated in-between.
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error)
            *error = "cannot rename " + tmp + " to " + path;
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

CacheLoadResult
loadEstimateCache(EstimateCache &cache, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return reject(CacheLoadStatus::NoFile, "no snapshot at " + path);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof())
        return reject(CacheLoadStatus::Corrupt,
                      "read error on " + path);
    return decodeEstimateCache(cache, bytes);
}

CacheLoadResult
loadEstimateCacheLogged(EstimateCache &cache, const std::string &path)
{
    CacheLoadResult result = loadEstimateCache(cache, path);
    switch (result.status) {
    case CacheLoadStatus::Loaded:
        std::fprintf(stderr,
                     "cache snapshot: loaded %zu entries from %s "
                     "(func %zu, band %zu, schedule %zu, plan %zu)\n",
                     result.totalEntries(), path.c_str(),
                     result.funcEntries, result.bandEntries,
                     result.scheduleEntries, result.planEntries);
        break;
    case CacheLoadStatus::NoFile:
        // First run against a cache dir: silent cold start.
        break;
    default:
        std::fprintf(stderr,
                     "warning: ignoring cache snapshot %s (%s); "
                     "starting cold\n",
                     path.c_str(), result.message.c_str());
        break;
    }
    return result;
}

bool
saveEstimateCacheLogged(const EstimateCache &cache, const std::string &path)
{
    std::string error;
    if (saveEstimateCache(cache, path, &error))
        return true;
    std::fprintf(stderr, "warning: cache snapshot not saved: %s\n",
                 error.c_str());
    return false;
}

std::string
defaultCacheSnapshotPath()
{
    const char *dir = std::getenv("SCALEHLS_CACHE_DIR");
    if (!dir || !*dir)
        return std::string();
    std::string path = dir;
    if (path.back() != '/')
        path += '/';
    path += "estimate_cache.shlsnap";
    return path;
}

} // namespace scalehls
