/**
 * @file
 * perfbench_sim: the measuring half of the repository benchmark.  run.py
 * is the driving half: it generates the inputs from the seed, builds this
 * program, and owns every statistic.
 *
 * One process runs one workload over the sweep points of a fastd job
 * document:
 *
 *   1. set-up, SetupReps times: admission, image build, runner
 *      construction and boot of every point;
 *   2. the correctness gate: every point runs once and its simulated
 *      results are checked (spec: the parallel runner reproduces the
 *      coupled run's commit hash; smp-service: every request is
 *      answered; sweep: every point is done);
 *   3. timed rounds for --seconds in one pinned sampler process per host
 *      CPU.  A round runs every point once; each run must reproduce the
 *      gate's simulated results.
 *
 * With --trace 1 the rounds run in this process instead and alternate
 * untraced and traced (spans around
 * each call into the simulator; per-cycle spans folded into sums), and
 * the layer probes follow: an FM-only replay through FuncModel::step, a
 * TM-only replay of the committed trace through Core::tick, an
 * in-process executePoint pass and the monolithic reference.  Kept spans
 * are written to <work-dir>/spans-<workload>.json (Chrome trace events).
 *
 * The result, one JSON object of raw samples, is written to --out (the
 * library's progress lines go to stdout).
 *
 *   perfbench_sim --workload W --jobs FILE --seconds S --trace 0|1
 *                 --work-dir DIR --out FILE [--untimed-gap-ms N]
 *   perfbench_sim --worker --checkpoint-dir DIR   (fastd worker mode)
 *
 * --untimed-gap-ms is a test hook: it sleeps after each traced run,
 * outside every tick span, so the tick-coverage self-check must fail.
 */

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/monolithic.hh"
#include "fast/parallel.hh"
#include "fast/simulator.hh"
#include "fast/smp.hh"
#include "isa/registers.hh"
#include "kernel/boot.hh"
#include "service/job.hh"
#include "service/manifest.hh"
#include "service/supervisor.hh"
#include "service/worker.hh"
#include "workloads/service.hh"

namespace fastsim {
namespace {

using Clock = std::chrono::steady_clock;

constexpr Cycle MaxCycles = 2000000000ull;
constexpr unsigned SetupReps = 20;
constexpr unsigned MinRounds = 3;
constexpr unsigned SweepWorkers = 1;
/** Committed entries kept per run for the TM replay (bounds memory). */
constexpr std::size_t ReplayCap = 100000;
/** Every 2^SpanKeepLog2-th per-cycle span is kept whole. */
constexpr unsigned SpanKeepLog2 = 12;
/** Halted FM polls allowed per instruction of an FM-only replay, so a
 *  guest that never wakes cannot hang the probe. */
constexpr std::uint64_t MaxHaltPolls = 1024;
/** A sweep worker that retires cleanly leaves its peak memory in a file
 *  of this prefix in its checkpoint directory (see main). */
constexpr const char *WorkerRssPrefix = "worker-rss-";

double
secs(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

enum class Kind
{
    Spec,
    OsIdle,
    Smp,
    Sweep
};

// --- tracing ---------------------------------------------------------------

/**
 * Spans recorded on the benchmark's side of each public call.  Coarse
 * spans are all kept; per-cycle spans are folded into sum/count pairs and
 * only every 2^SpanKeepLog2-th one is kept, so memory stays bounded.
 */
class Tracer
{
  public:
    struct Agg
    {
        double ns = 0;
        std::uint64_t count = 0;
        double mean() const { return count ? ns / double(count) : 0.0; }
    };

    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

    /** Open a span; returns its id, or -1 when tracing is off. */
    long
    begin(const char *name)
    {
        if (!on_)
            return -1;
        spans_.push_back({name, Clock::now(), {}, parent()});
        open_.push_back(static_cast<long>(spans_.size() - 1));
        return open_.back();
    }

    void
    end(long id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].t1 = Clock::now();
        open_.pop_back();
    }

    /** One per-cycle span [t0, t1), charged to `agg`. */
    void
    cycle(Agg &agg, const char *name, Clock::time_point t0,
          Clock::time_point t1)
    {
        agg.ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
        if ((agg.count++ & ((1ull << SpanKeepLog2) - 1)) == 0)
            spans_.push_back({name, t0, t1, parent()});
    }

    void
    write(const std::string &path) const
    {
        std::ofstream f(path);
        f << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
              << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
              << std::chrono::duration<double, std::micro>(s.t0 - origin_)
                     .count()
              << ",\"dur\":"
              << std::chrono::duration<double, std::micro>(s.t1 - s.t0)
                     .count()
              << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
              << "}}";
        }
        f << "\n]}\n";
    }

  private:
    struct Span
    {
        const char *name;
        Clock::time_point t0, t1;
        long parent;
    };

    long parent() const { return open_.empty() ? -1 : open_.back(); }

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<long> open_;
};

class Scope
{
  public:
    Scope(Tracer &t, const char *name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    long id_;
};

// --- output -------------------------------------------------------------------

std::string
quote(const std::string &s)
{
    std::string q = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            q += '\\';
        q += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return q + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** open + f(x0) + "," + f(x1) ... + close. */
template <typename Seq, typename F>
std::string
joined(const Seq &items, F f, const char *open = "[", const char *close = "]")
{
    std::string out = open;
    for (const auto &x : items) {
        if (out.size() > 1)
            out += ',';
        out += f(x);
    }
    out += close;
    return out;
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/**
 * Pins the calling thread, and the threads and processes it starts, to
 * the index-th host CPU it may use (modulo their number), and restores
 * the previous mask on destruction.  On a shared host each CPU is slowed
 * by other tenants in phases of seconds, independently of the others, so
 * timed work is spread over all of them (see Bench::sample).
 */
class Pin
{
  public:
    explicit Pin(unsigned index)
    {
        if (sched_getaffinity(0, sizeof(old_), &old_) != 0)
            return;
        std::vector<int> cpus;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &old_))
                cpus.push_back(c);
        if (cpus.size() < 2)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus[index % cpus.size()], &set);
        pinned_ = sched_setaffinity(0, sizeof(set), &set) == 0;
    }
    ~Pin()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof(old_), &old_);
    }
    Pin(const Pin &) = delete;
    Pin &operator=(const Pin &) = delete;

  private:
    cpu_set_t old_{};
    bool pinned_ = false;
};

/**
 * Peak resident MB of this process image (VmHWM).  getrusage's ru_maxrss
 * is not used: it keeps the high-water mark of the image that exec'd
 * this one, i.e. of whatever launched the benchmark.
 */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    for (std::string line; std::getline(f, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0;
}

/** Host CPUs this process may run on. */
unsigned
allowedCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

// --- bookkeeping ---------------------------------------------------------------

/** Simulated results of one guest run, batch point or SMP run. */
struct SimResult
{
    bool finished = false;
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t hash = 0;
    std::uint64_t ops = 1; //!< answered requests on smp-service, else 1
    double runS = 0;       //!< host seconds inside run() / the tick loop
    std::string why;       //!< failure reason, empty if none
};

/** One round's timed seconds: one entry per point, or one for a whole
 *  sweep batch (fastd reports no per-point host time). */
using Round = std::vector<double>;

/** Per-layer accumulators, filled by traced rounds and the probes. */
struct Layers
{
    Tracer::Agg tickBusy, tickIdle, replayCycle, fmStep;
    /** Tick spans inside the traced rounds, and the rounds' own wall
     *  time taken around them: the coverage self-check's two sides. */
    double roundTickNs = 0, roundS = 0;
    double imageS = 0, admitS = 0, constructS = 0;
    unsigned setupPoints = 0;
    // Coupled-runner and FM counters, summed over traced tick loops.
    std::uint64_t committed = 0, cycles = 0, resteers = 0, tbFull = 0;
    std::uint64_t decodeHits = 0, decodeMisses = 0, fmInsts = 0,
                  wrongPathInsts = 0, rollbacks = 0;
    // Parallel-runner counters.
    std::uint64_t parInsts = 0, parks = 0, batches = 0, batchedCommits = 0,
                  holdTicks = 0, parResteers = 0;
    double parS = 0;
    std::uint64_t replayEntries = 0, replayCommitted = 0;
    std::vector<double> inprocS;
    unsigned restarts = 0;
    double monoInsts = 0, monoS = 0;
};

void
addFmStats(Layers &L, const stats::Group &g)
{
    L.decodeHits += g.value("decode_cache_hits");
    L.decodeMisses += g.value("decode_cache_misses");
    L.fmInsts += g.value("instructions");
    L.wrongPathInsts += g.value("wrong_path_insts");
    L.rollbacks += g.value("rollbacks");
}

void
addRunnerStats(Layers &L, const stats::Group &g, std::uint64_t insts,
               std::uint64_t cycles)
{
    L.committed += insts;
    L.cycles += cycles;
    L.resteers +=
        g.value("wrong_path_resteers") + g.value("resolve_resteers");
    L.tbFull += g.value("fm_stall_tb_full");
}

// --- the benchmark -------------------------------------------------------------

struct Options
{
    std::string workload;
    std::string jobs;
    double seconds = 0;
    bool trace = false;
    std::string workDir = ".";
    std::string out;
    std::string selfExe;
    double gapMs = 0; //!< --untimed-gap-ms
};

class Bench
{
  public:
    Bench(const Options &o, Kind k, service::JobBatch batch)
        : o_(o), kind_(k), batch_(std::move(batch)), tr_(o.trace)
    {
    }

    /** Run everything; returns the result JSON object. */
    std::string run();

  private:
    fast::FastConfig configOf(const service::SweepPoint &pt) const;
    double setupOnce();
    void gate();
    Round round(bool traced);
    SimResult coupled(std::size_t i, bool traced,
                      std::vector<fm::TraceEntry> *record);
    SimResult parallel(std::size_t i);
    template <typename Sim, typename Idle, typename Cycles>
    bool tickLoop(Sim &sim, Idle idle, Cycles cycles, double &loop_s);
    SimResult smp(bool traced, std::vector<fm::TraceEntry> *record);
    std::vector<SimResult> sweepBatch(double &wall);
    void probes();
    void replayTm(const std::vector<fm::TraceEntry> &entries,
                  tm::CoreConfig cc);
    void replayFm(const kernel::BootImage &img, fm::FmConfig fc,
                  std::uint64_t cap);
    void inproc(std::size_t i, bool compare);
    void check(const SimResult &r, const SimResult &want,
               const std::string &label);
    std::string layersJson(double untraced_kips, double traced_kips);
    double kipsOf(const std::vector<Round> &rs) const;
    std::vector<Round> timedLoop();
    std::vector<Round> sample();

    Options o_;
    Kind kind_;
    service::JobBatch batch_;
    Tracer tr_;
    std::vector<kernel::BootImage> images_;
    std::vector<SimResult> gate_;
    Layers L_;
    std::uint64_t attempted_ = 0, failed_ = 0;
    std::vector<std::string> errors_;
    std::vector<std::pair<std::string, std::string>> sim_;
    std::vector<std::string> rejects_; //!< per point, empty if admitted
    unsigned serial_ = 0; //!< fresh output directory per batch / probe
    double workerPeakMb_ = 0; //!< highest peak of a retired sweep worker
};

fast::FastConfig
Bench::configOf(const service::SweepPoint &pt) const
{
    fast::FastConfig cfg = service::configFor(pt);
    // Parallel hash parity needs commit-anchored device timing on both
    // runners of the spec workloads.
    if (kind_ == Kind::Spec)
        cfg.deterministicDevices = true;
    cfg.checkpointPath = o_.workDir + "/inproc.ckpt";
    return cfg;
}

/** One set-up of every point: admit, build, construct, boot. */
double
Bench::setupOnce()
{
    double total = 0;
    rejects_.resize(batch_.points.size());
    for (std::size_t i = 0; i < batch_.points.size(); ++i) {
        const service::SweepPoint &pt = batch_.points[i];
        const auto t0 = Clock::now();
        std::string reason;
        bool admitted = false;
        {
            Scope s(tr_, "service.admit");
            admitted = service::admit(pt, reason);
        }
        const auto t1 = Clock::now();
        kernel::BootImage img;
        {
            Scope s(tr_, "kernel.buildBootImage");
            img = service::imageFor(pt);
        }
        const auto t2 = Clock::now();
        const fast::FastConfig cfg = configOf(pt);
        Clock::time_point t3;
        auto constructAndBoot = [&](auto make) {
            decltype(make()) sim;
            {
                Scope s(tr_, "fast.construct");
                sim = make();
            }
            t3 = Clock::now();
            Scope s(tr_, "fast.boot");
            sim->boot(img);
        };
        if (kind_ == Kind::Smp)
            constructAndBoot(
                [&] { return std::make_unique<fast::SmpSimulator>(cfg); });
        else
            constructAndBoot(
                [&] { return std::make_unique<fast::FastSimulator>(cfg); });
        const auto t4 = Clock::now();
        if (!admitted)
            rejects_[i] = "admission rejected: " + reason;
        L_.admitS += secs(t0, t1);
        L_.imageS += secs(t1, t2);
        L_.constructS += secs(t2, t3);
        ++L_.setupPoints;
        total += secs(t0, t4);
    }
    return total;
}

/** Count one op; it fails unless it finished and matches `want`. */
void
Bench::check(const SimResult &r, const SimResult &want,
             const std::string &label)
{
    attempted_ += r.ops ? r.ops : 1;
    std::string why = r.why;
    if (why.empty() && !r.finished)
        why = "did not finish";
    if (why.empty() && (r.hash != want.hash || r.cycles != want.cycles ||
                        r.insts != want.insts))
        why = "simulated results differ from the gate run";
    if (why.empty())
        return;
    failed_ += r.ops ? r.ops : 1;
    if (errors_.size() < 20)
        errors_.push_back(label + ": " + why);
}

/**
 * A runner's run() as a loop of tickOnce() calls, each a per-cycle span
 * charged to busy or idle by `idle()` before the tick.  A span runs from
 * one clock read to the next, so the spans tile the loop.  Returns
 * whether the guest finished; `loop_s` gets the loop's wall time.
 */
template <typename Sim, typename Idle, typename Cycles>
bool
Bench::tickLoop(Sim &sim, Idle idle, Cycles cycles, double &loop_s)
{
    const auto t0 = Clock::now();
    auto prev = t0;
    bool done = false;
    while (!done && cycles() < MaxCycles) {
        const bool halted = idle();
        sim.tickOnce();
        done = sim.finished();
        const auto now = Clock::now();
        tr_.cycle(halted ? L_.tickIdle : L_.tickBusy,
                  halted ? "tickOnce.idle" : "tickOnce.busy", prev, now);
        prev = now;
    }
    loop_s = secs(t0, prev);
    return done;
}

SimResult
Bench::coupled(std::size_t i, bool traced, std::vector<fm::TraceEntry> *record)
{
    SimResult r;
    try {
        fast::FastConfig cfg = configOf(batch_.points[i]);
        cfg.checkpointEvery = 0; // the sweep's checkpoints belong to fastd
        fast::FastSimulator sim(cfg);
        sim.boot(images_[i]);
        if (record) {
            record->clear();
            auto prev = sim.core().onCommit;
            sim.core().onCommit = [prev, record](const fm::TraceEntry &e) {
                if (prev)
                    prev(e);
                if (record->size() < ReplayCap)
                    record->push_back(e);
            };
        }
        if (!traced) {
            const auto t0 = Clock::now();
            r.finished = sim.run(MaxCycles).finished;
            r.runS = secs(t0, Clock::now());
        } else {
            // run() without checkpoints is exactly this loop.
            Scope s(tr_, "fast.FastSimulator.run");
            r.finished = tickLoop(
                sim, [&] { return sim.fm().halted(); },
                [&] { return sim.core().cycle(); }, r.runS);
            addRunnerStats(L_, sim.stats(), sim.core().committedInsts(),
                           sim.core().cycle());
            addFmStats(L_, sim.fm().stats());
        }
        r.cycles = sim.core().cycle();
        r.insts = sim.core().committedInsts();
        r.hash = sim.commitHash();
    } catch (const std::exception &e) {
        r.why = e.what();
    }
    return r;
}

SimResult
Bench::parallel(std::size_t i)
{
    SimResult r;
    try {
        fast::ParallelFastSimulator sim(configOf(batch_.points[i]));
        sim.boot(images_[i]);
        const auto t0 = Clock::now();
        fast::RunResult rr;
        {
            Scope s(tr_, "fast.ParallelFastSimulator.run");
            rr = sim.run(MaxCycles);
        }
        r.runS = secs(t0, Clock::now());
        r.finished = rr.finished;
        if (sim.degraded())
            r.why = "parallel runner degraded to the coupled loop";
        r.cycles = rr.cycles;
        r.insts = rr.insts;
        r.hash = sim.commitHash();
        const stats::Group &g = sim.stats();
        L_.parInsts += rr.insts;
        L_.parS += r.runS;
        L_.parks += g.value("fm_parks") + g.value("tm_parks");
        L_.batches += g.value("cmd_commit_batches");
        L_.batchedCommits += g.value("cmd_batched_commits");
        L_.holdTicks += g.value("epoch_hold_ticks");
        L_.parResteers +=
            g.value("wrong_path_resteers") + g.value("resolve_resteers");
    } catch (const std::exception &e) {
        r.why = e.what();
    }
    return r;
}

SimResult
Bench::smp(bool traced, std::vector<fm::TraceEntry> *record)
{
    SimResult r;
    try {
        const service::SweepPoint &pt = batch_.points.at(0);
        workloads::ServiceConfig svc;
        svc.loadGenerators = pt.numCores - 1;
        svc.requestsPerGen = pt.scale;
        fast::SmpSimulator sim(configOf(pt));
        workloads::ServiceMonitor monitor(svc, sim);
        if (record) {
            record->clear();
            auto prev = std::move(sim.onCommitEntry);
            sim.onCommitEntry = [prev, record](unsigned c,
                                               const fm::TraceEntry &e) {
                if (prev)
                    prev(c, e);
                if (c == 0 && record->size() < ReplayCap)
                    record->push_back(e);
            };
        }
        sim.boot(images_.at(0));
        if (!traced) {
            const auto t0 = Clock::now();
            r.finished = sim.run(MaxCycles).finished;
            r.runS = secs(t0, Clock::now());
        } else {
            Scope s(tr_, "fast.SmpSimulator.run");
            auto idle = [&] {
                for (unsigned c = 0; c < sim.numCores(); ++c)
                    if (!sim.fmCore(c).halted())
                        return false;
                return true;
            };
            r.finished =
                tickLoop(sim, idle, [&] { return sim.cycle(); }, r.runS);
            addRunnerStats(L_, sim.stats(), sim.core().committedInstsTotal(),
                           sim.cycle());
            for (unsigned c = 0; c < sim.numCores(); ++c)
                addFmStats(L_, sim.fmCore(c).stats());
        }
        r.cycles = sim.cycle();
        r.insts = sim.core().committedInstsTotal();
        r.hash = sim.commitHash();
        const workloads::ServiceReport rep = monitor.report();
        r.ops = rep.totalRequests;
        if (rep.completed != rep.totalRequests)
            r.why = "answered " + std::to_string(rep.completed) + " of " +
                    std::to_string(rep.totalRequests) + " requests";
        if (gate_.empty()) {
            sim_.push_back({"service.p50_cycles", std::to_string(rep.p50)});
            sim_.push_back({"service.p99_cycles", std::to_string(rep.p99)});
        }
    } catch (const std::exception &e) {
        r.why = e.what();
    }
    return r;
}

/** One closed-loop fastd batch with every point queued at t=0, in a
 *  fresh output directory (a reused manifest would skip every point). */
std::vector<SimResult>
Bench::sweepBatch(double &wall)
{
    service::SupervisorConfig cfg;
    cfg.selfExe = o_.selfExe;
    cfg.workers = SweepWorkers;
    cfg.outDir = o_.workDir + "/sweep-" + std::to_string(getpid()) + "-" +
                 std::to_string(serial_++);
    std::filesystem::remove_all(cfg.outDir);
    const auto t0 = Clock::now();
    service::BatchSummary sum;
    {
        Scope s(tr_, "service.runBatch");
        sum = service::runBatch(batch_, cfg);
    }
    wall = secs(t0, Clock::now());
    L_.restarts += sum.restarts;
    // runBatch has reaped every worker; those that retired cleanly left
    // their peak memory in the batch's checkpoint directory, <outDir>/ckpt.
    std::error_code ec;
    for (const auto &e :
         std::filesystem::directory_iterator(cfg.outDir + "/ckpt", ec)) {
        if (e.path().filename().string().rfind(WorkerRssPrefix, 0) != 0)
            continue;
        std::ifstream f(e.path());
        double mb = 0;
        if (f >> mb)
            workerPeakMb_ = std::max(workerPeakMb_, mb);
    }
    service::Manifest man(cfg.outDir + "/manifest.jsonl");
    std::vector<SimResult> out;
    for (const service::SweepPoint &pt : batch_.points) {
        SimResult r;
        const service::ManifestRecord *rec =
            man.find(service::fingerprintHex(pt));
        if (!rec) {
            r.why = "no manifest record";
        } else {
            r.finished = rec->status == "done";
            if (!r.finished)
                r.why = rec->status + ": " + rec->reason;
            r.cycles = rec->cycles;
            r.insts = rec->insts;
            r.hash = std::strtoull(rec->commitHash.c_str(), nullptr, 16);
        }
        out.push_back(r);
    }
    std::filesystem::remove_all(cfg.outDir);
    return out;
}

void
Bench::gate()
{
    const auto &pts = batch_.points;
    if (kind_ == Kind::Sweep) {
        double wall = 0;
        gate_ = sweepBatch(wall);
    } else if (kind_ == Kind::Smp) {
        gate_.push_back(smp(false, nullptr));
    } else {
        for (std::size_t i = 0; i < pts.size(); ++i)
            gate_.push_back(coupled(i, false, nullptr));
    }
    for (std::size_t i = 0; i < gate_.size(); ++i) {
        if (!rejects_[i].empty())
            gate_[i].why = rejects_[i];
        check(gate_[i], gate_[i], pts[i].label);
        // The parallel runner must reproduce the coupled run exactly.
        if (kind_ == Kind::Spec)
            check(parallel(i), gate_[i], pts[i].label + " (parallel)");
        const std::string l = pts[i].label;
        sim_.push_back({l + ".cycles", std::to_string(gate_[i].cycles)});
        sim_.push_back({l + ".insts", std::to_string(gate_[i].insts)});
        sim_.push_back({l + ".hash", hex(gate_[i].hash)});
    }
}

/** One round: every point once.  Only run() (or the batch) is timed;
 *  construction and boot are set-up, which setup_s measures. */
Round
Bench::round(bool traced)
{
    Round rd;
    const auto &pts = batch_.points;
    std::vector<SimResult> res;
    if (kind_ == Kind::Sweep) {
        double wall = 0;
        res = sweepBatch(wall);
        rd.push_back(wall);
    } else {
        for (std::size_t i = 0; i < gate_.size(); ++i) {
            if (kind_ == Kind::Smp)
                res.push_back(smp(traced, nullptr));
            else
                res.push_back(coupled(i, traced, nullptr));
            rd.push_back(res.back().runS);
            if (traced && o_.gapMs > 0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(o_.gapMs));
        }
    }
    for (std::size_t i = 0; i < res.size(); ++i)
        check(res[i], gate_[i], pts[i].label);
    return rd;
}

/** TM-only replay: the committed-path trace, renumbered from IN 1 on one
 *  epoch, through a fresh TraceBuffer + Core with the perfect predictor. */
void
Bench::replayTm(const std::vector<fm::TraceEntry> &entries, tm::CoreConfig cc)
{
    if (entries.empty())
        return;
    cc.bp.kind = tm::BpKind::Perfect;
    tm::TraceBuffer tb(256);
    tm::Core core(cc, tb);
    const std::uint64_t n = entries.size();
    std::size_t next = 0;
    Scope s(tr_, "tm.replay");
    auto prev = Clock::now();
    const Cycle limit = 64 * n + 100000;
    bool broken = false;
    while (!broken && core.committedInsts() < n && core.cycle() < limit) {
        while (next < n && !tb.full()) {
            fm::TraceEntry e = entries[next];
            e.in = ++next;
            e.epoch = 0;
            e.wrongPath = false;
            tb.push(e);
        }
        core.tick();
        for (const tm::TmEvent &ev : core.drainEvents()) {
            if (ev.kind == tm::TmEvent::Kind::Commit)
                broken |= !tb.commitTo(ev.in);
            else if (ev.kind != tm::TmEvent::Kind::RefetchAt)
                broken = true; // a perfect predictor never resteers
        }
        const auto now = Clock::now();
        tr_.cycle(L_.replayCycle, "tm.Core.tick", prev, now);
        prev = now;
    }
    L_.replayEntries += n;
    L_.replayCommitted += core.committedInsts();
}

/**
 * FM-only replay of an image through FuncModel::step (FM-driven devices),
 * up to `cap` executed instructions.  Each step is a span; fm.step_ns
 * averages the executed ones only, so halted polls (device time passing
 * while the guest waits for an interrupt) do not dilute it.
 */
void
Bench::replayFm(const kernel::BootImage &img, fm::FmConfig fc,
                std::uint64_t cap)
{
    fc.fmDrivenDevices = true;
    fm::FuncModel m(fc);
    kernel::loadAndReset(m, img);
    Scope s(tr_, "fm.replay");
    Tracer::Agg halted;
    std::uint64_t insts = 0;
    auto prev = Clock::now();
    while (insts < cap && halted.count < MaxHaltPolls * cap) {
        const fm::StepResult r = m.step();
        const auto now = Clock::now();
        if (r.kind == fm::StepResult::Kind::Ok) {
            tr_.cycle(L_.fmStep, "fm.step", prev, now);
            if ((++insts & 4095) == 0)
                m.commit(r.entry.in);
        } else {
            tr_.cycle(halted, "fm.step.halted", prev, now);
            if (!(m.state().flags & isa::FlagI))
                break; // the final halt
        }
        prev = now;
    }
}

/** The service layer's in-process path, service::executePoint, on one
 *  point; `compare` checks its hash against the gate. */
void
Bench::inproc(std::size_t i, bool compare)
{
    const std::string dir =
        o_.workDir + "/inproc-" + std::to_string(serial_++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SimResult r;
    const auto t0 = Clock::now();
    try {
        Scope s(tr_, "service.executePoint");
        const service::PointOutcome out =
            service::executePoint(batch_.points[i], dir, {});
        r.finished = out.finished && out.status == "done";
        if (!r.finished)
            r.why = out.status + ": " + out.reason;
        r.cycles = out.cycles;
        r.insts = out.insts;
        r.hash = out.commitHash;
    } catch (const std::exception &e) {
        r.why = e.what();
    }
    L_.inprocS.push_back(secs(t0, Clock::now()));
    std::filesystem::remove_all(dir);
    SimResult want = compare ? gate_[i] : r;
    want.ops = r.ops = 1;
    check(r, want, batch_.points[i].label + " (executePoint)");
}

void
Bench::probes()
{
    std::vector<fm::TraceEntry> rec;
    rec.reserve(ReplayCap);
    for (std::size_t i = 0; i < gate_.size(); ++i) {
        const service::SweepPoint &pt = batch_.points[i];
        const fast::FastConfig cfg = configOf(pt);
        if (kind_ == Kind::Smp) {
            check(smp(true, &rec), gate_[i], "service (traced)");
            // Core 0's program stepped alone: the server after boot.
            replayFm(images_[i], cfg.fm, gate_[i].insts / pt.numCores);
        } else {
            SimResult r = coupled(i, true, &rec);
            // Sweep points checkpoint under fastd, which moves their
            // cycles; only the unchanged configurations must match.
            check(r, kind_ == Kind::Sweep ? r : gate_[i],
                  pt.label + " (traced)");
            replayFm(images_[i], cfg.fm, r.insts);
            fast::FastConfig mcfg = cfg;
            mcfg.checkpointEvery = 0;
            baseline::MonolithicSimulator mono(mcfg);
            mono.boot(images_[i]);
            Scope s(tr_, "baseline.MonolithicSimulator.run");
            const baseline::MeasuredRun m = mono.run(MaxCycles);
            L_.monoInsts += double(m.targetInsts);
            L_.monoS += m.wallSeconds;
        }
        replayTm(rec, cfg.core);
        // configFor() is the spec workloads' configuration minus
        // commit-anchored devices, so their hashes legitimately differ.
        inproc(i, kind_ != Kind::Spec);
    }
}

std::string
Bench::layersJson(double untraced_kips, double traced_kips)
{
    const double kinst = double(L_.committed) / 1000.0;
    const double sp = double(L_.setupPoints);
    std::vector<std::pair<std::string, double>> m = {
        {"kernel.image_build_ms", 1e3 * ratio(L_.imageS, sp)},
        {"analysis.admit_ms", 1e3 * ratio(L_.admitS, sp)},
        {"fast.construct_ms", 1e3 * ratio(L_.constructS, sp)},
        {"fast.tick_ns.busy", L_.tickBusy.mean()},
        {"fast.tick_ns.idle", L_.tickIdle.mean()},
        {"fast.idle_cycle_frac",
         ratio(double(L_.tickIdle.count),
               double(L_.tickIdle.count + L_.tickBusy.count))},
        {"fast.resteers_per_kinst", ratio(double(L_.resteers), kinst)},
        {"fast.tb_full_per_kcycle",
         ratio(double(L_.tbFull), double(L_.cycles) / 1000.0)},
        {"fast.tick_coverage", ratio(L_.roundTickNs / 1e9, L_.roundS)},
        {"fm.step_ns", L_.fmStep.mean()},
        {"fm.decode_hit_ratio",
         ratio(double(L_.decodeHits),
               double(L_.decodeHits + L_.decodeMisses))},
        {"fm.wrong_path_frac",
         ratio(double(L_.wrongPathInsts), double(L_.fmInsts))},
        {"fm.rollbacks_per_kinst", ratio(double(L_.rollbacks), kinst)},
        {"tm.replay_cycle_ns", L_.replayCycle.mean()},
        {"tm.replay_committed_frac",
         ratio(double(L_.replayCommitted), double(L_.replayEntries))},
        {"par.parks_per_kinst",
         ratio(double(L_.parks), double(L_.parInsts) / 1000.0)},
        {"par.commits_per_batch",
         ratio(double(L_.batches + L_.batchedCommits), double(L_.batches))},
        {"par.hold_ticks_per_resteer",
         ratio(double(L_.holdTicks), double(L_.parResteers))},
        {"service.restarts", double(L_.restarts)},
        {"trace.kips_ratio", ratio(traced_kips, untraced_kips)},
        {"baseline.mono_kips", ratio(L_.monoInsts / 1000.0, L_.monoS)},
    };
    return joined(
        m, [](const auto &p) { return quote(p.first) + ":" + num(p.second); },
        "{", "}");
}

/** Committed kilo-instructions per second over whole rounds. */
double
Bench::kipsOf(const std::vector<Round> &rs) const
{
    double insts = 0, s = 0;
    for (const Round &r : rs) {
        for (const SimResult &g : gate_)
            insts += double(g.insts);
        for (double x : r)
            s += x;
    }
    return ratio(insts / 1000.0, s);
}

/** Untraced rounds until --seconds have passed (at least MinRounds). */
std::vector<Round>
Bench::timedLoop()
{
    std::vector<Round> rounds;
    const auto start = Clock::now();
    while (rounds.size() < MinRounds ||
           secs(start, Clock::now()) < o_.seconds)
        rounds.push_back(round(false));
    return rounds;
}

/**
 * The untraced timed rounds: one sampler process per host CPU, each
 * pinned to its CPU for its whole life (a sweep batch's worker inherits
 * the pin), run at once and pool their rounds.  Every CPU is sampled for
 * the whole window, so run.py can take each point's fastest run.
 */
std::vector<Round>
Bench::sample()
{
    const unsigned n = allowedCpus();
    if (n <= 1)
        return timedLoop();
    auto path = [&](unsigned k) {
        return o_.workDir + "/sampler-" + std::to_string(k) + ".txt";
    };
    std::vector<pid_t> kids;
    for (unsigned k = 0; k < n; ++k) {
        std::fflush(nullptr);
        const pid_t pid = fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid > 0) {
            kids.push_back(pid);
            continue;
        }
        int code = 1;
        try {
            Pin pin(k);
            attempted_ = failed_ = 0;
            errors_.clear();
            const std::vector<Round> rs = timedLoop();
            std::ofstream f(path(k));
            f << attempted_ << ' ' << failed_ << '\n';
            for (const Round &r : rs) {
                f << 'r';
                for (double t : r)
                    f << ' ' << num(t);
                f << '\n';
            }
            for (std::string e : errors_) {
                std::replace(e.begin(), e.end(), '\n', ' ');
                f << "e " << e << '\n';
            }
            f.close();
            code = f ? 0 : 1;
        } catch (...) {
        }
        std::fflush(nullptr);
        std::_Exit(code);
    }
    std::vector<Round> rounds;
    for (unsigned k = 0; k < n; ++k) {
        int status = 0;
        const bool exited = waitpid(kids[k], &status, 0) == kids[k] &&
                            WIFEXITED(status) && WEXITSTATUS(status) == 0;
        std::ifstream f(path(k));
        std::uint64_t a = 0, fl = 0;
        std::string line;
        if (!exited || !(f >> a >> fl) || !std::getline(f, line)) {
            ++attempted_;
            ++failed_;
            errors_.push_back("sampler " + std::to_string(k) + " failed");
            continue;
        }
        attempted_ += a;
        failed_ += fl;
        while (std::getline(f, line)) {
            if (line.rfind("r ", 0) == 0) {
                std::istringstream in(line.substr(2));
                Round r;
                for (double t; in >> t;)
                    r.push_back(t);
                rounds.push_back(r);
            } else if (errors_.size() < 20) {
                errors_.push_back(line.substr(2));
            }
        }
        f.close();
        std::filesystem::remove(path(k));
    }
    return rounds;
}

std::string
Bench::run()
{
    for (const service::SweepPoint &pt : batch_.points)
        images_.push_back(service::imageFor(pt));

    std::vector<double> setup;
    for (unsigned k = 0; k < SetupReps; ++k) {
        Pin pin(k);
        setup.push_back(setupOnce());
    }

    gate();
    // The timed rounds repeat the gate's work in sampler processes.  On
    // sweep the gate's batch ran in a worker, which left its own peak.
    const double peak = std::max(peakRssMb(), workerPeakMb_);

    // The traced run alternates untraced and traced rounds in this
    // process, so trace.kips_ratio compares like with like.  Each traced
    // round is also timed whole, by a clock independent of the tick
    // spans inside it, for the tick-coverage self-check.
    std::vector<Round> rounds, traced;
    if (o_.trace) {
        const auto start = Clock::now();
        while (rounds.size() < MinRounds ||
               secs(start, Clock::now()) < o_.seconds) {
            rounds.push_back(round(false));
            const double ticks = L_.tickBusy.ns + L_.tickIdle.ns;
            const auto t0 = Clock::now();
            traced.push_back(round(true));
            L_.roundS += secs(t0, Clock::now());
            L_.roundTickNs += L_.tickBusy.ns + L_.tickIdle.ns - ticks;
        }
    } else {
        rounds = sample();
    }

    std::string layers;
    if (o_.trace) {
        probes();
        layers = layersJson(kipsOf(rounds), kipsOf(traced));
        tr_.write(o_.workDir + "/spans-" + o_.workload + ".json");
    }

    auto str = [](const std::string &x) { return quote(x); };
    auto dbl = [](double x) { return num(x); };
    auto kv = [](const auto &p) { return quote(p.first) + ":" + p.second; };
    std::vector<std::string> points;
    for (std::size_t i = 0; i < gate_.size(); ++i)
        points.push_back(joined(
            std::vector<std::pair<std::string, std::string>>{
                {"label", quote(batch_.points[i].label)},
                {"insts", std::to_string(gate_[i].insts)},
                {"cycles", std::to_string(gate_[i].cycles)},
                {"ops", std::to_string(gate_[i].ops)}},
            kv, "{", "}"));
    std::vector<std::pair<std::string, std::string>> sim;
    for (const auto &[k, v] : sim_)
        sim.emplace_back(k, quote(v));

#if defined(__OPTIMIZE__) && defined(NDEBUG)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::vector<std::pair<std::string, std::string>> out = {
        {"attempted", std::to_string(attempted_)},
        {"failed", std::to_string(failed_)},
        {"optimized", optimized ? "true" : "false"},
        {"errors", joined(errors_, str)},
        {"points", joined(points, [](const std::string &p) { return p; })},
        {"setup_s", joined(setup, dbl)},
        {"rounds",
         joined(rounds, [&](const Round &r) { return joined(r, dbl); })},
        {"peak_rss_mb", num(peak)},
        {"par_kips", num(ratio(double(L_.parInsts) / 1000.0, L_.parS))},
        {"inproc_s", joined(L_.inprocS, dbl)},
        {"sweep_workers", std::to_string(SweepWorkers)},
        {"sim", joined(sim, kv, "{", "}")},
    };
    if (!layers.empty())
        out.emplace_back("layers", layers);
    return joined(out, kv, "{", "}");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_sim --workload W --jobs FILE --seconds S "
                 "--trace 0|1 --work-dir DIR --out FILE "
                 "[--untimed-gap-ms N]\n"
                 "       perfbench_sim --worker --checkpoint-dir DIR\n");
    return 2;
}

} // namespace
} // namespace fastsim

int
main(int argc, char **argv)
{
    using namespace fastsim;
    Options o;
    o.selfExe = std::filesystem::canonical("/proc/self/exe").string();
    bool worker = false;
    std::string ckptDir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool more = i + 1 < argc;
        if (a == "--worker")
            worker = true;
        else if (a == "--checkpoint-dir" && more)
            ckptDir = argv[++i];
        else if (a == "--workload" && more)
            o.workload = argv[++i];
        else if (a == "--jobs" && more)
            o.jobs = argv[++i];
        else if (a == "--seconds" && more)
            o.seconds = std::atof(argv[++i]);
        else if (a == "--trace" && more)
            o.trace = std::string(argv[++i]) == "1";
        else if (a == "--work-dir" && more)
            o.workDir = argv[++i];
        else if (a == "--out" && more)
            o.out = argv[++i];
        else if (a == "--untimed-gap-ms" && more)
            o.gapMs = std::atof(argv[++i]);
        else
            return usage();
    }
    // fastd re-invokes this binary as its worker processes.  A worker
    // that retires cleanly leaves its peak memory next to its
    // checkpoints, where sweepBatch reads it: the sweep's peak_rss_mb
    // includes its workers.
    if (worker) {
        const int code = service::workerMain(ckptDir);
        std::ofstream(ckptDir + "/" + WorkerRssPrefix +
                      std::to_string(getpid()))
            << num(peakRssMb()) << '\n';
        return code;
    }

    const std::pair<const char *, Kind> kinds[] = {
        {"spec", Kind::Spec},
        {"os-idle", Kind::OsIdle},  {"smp-service", Kind::Smp},
        {"sweep", Kind::Sweep},
    };
    const auto it = std::find_if(std::begin(kinds), std::end(kinds),
                                 [&](const auto &k) {
                                     return o.workload == k.first;
                                 });
    if (it == std::end(kinds) || o.jobs.empty() || o.out.empty() ||
        o.seconds <= 0)
        return usage();

    std::ifstream in(o.jobs);
    if (!in) {
        std::fprintf(stderr, "perfbench_sim: cannot read %s\n",
                     o.jobs.c_str());
        return 1;
    }
    std::stringstream text;
    text << in.rdbuf();
    try {
        service::JobBatch batch = service::parseJobs(text.str());
        if (batch.points.empty() ||
            (it->second == Kind::Smp) != (batch.points[0].numCores > 1)) {
            std::fprintf(stderr, "perfbench_sim: job file does not fit "
                                 "workload %s\n",
                         o.workload.c_str());
            return 1;
        }
        Bench bench(o, it->second, std::move(batch));
        const std::string result = bench.run();
        std::ofstream out(o.out);
        out << result << '\n';
        if (!out.flush()) {
            std::fprintf(stderr, "perfbench_sim: cannot write %s\n",
                         o.out.c_str());
            return 1;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
        return 1;
    }
    return 0;
}
