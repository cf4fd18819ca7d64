/**
 * @file
 * One benchmark simulation, timed layer by layer from outside the
 * library.
 *
 *   aqsim_perfbench --app nas.ep --nodes 2048 --scale 1 --seed 7
 *       --policy fixed:1us --engine sequential|threaded|distributed
 *       [--workers K] [--checkpoint-every N --checkpoint-dir DIR]
 *       [--mode run|setup|info] [--trace]
 *
 * Modes:
 *  - run: build the Cluster, run it on the chosen engine, tear it
 *    down, and print one JSON line with the spans around each library
 *    call, the RunResult counters and getrusage. With --checkpoint-dir
 *    the written images are then decoded once through the ckpt load
 *    path (outside every span) and the directory is deleted.
 *  - setup: build the Cluster and tear it down, nothing else.
 *  - info: print the build this binary was compiled in.
 *
 * --trace turns on EngineOptions::phaseStats and recordTimeline and
 * adds one extra Cluster::stateHash() call after the run, so the
 * per-layer figures come from a separate traced run.
 *
 * The distributed engine builds its clusters inside run() (one in the
 * coordinator, one per worker process), so for it the run span holds
 * set-up and teardown too, and there is no cluster to hash here.
 *
 * Exit code 0 on success; 1 on any failure, with the reason on stderr
 * and no result line.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "aqsim.hh"
#include "ckpt/manager.hh"

using namespace aqsim;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Resident set size of this process in KiB (/proc/self/statm). */
long
residentKb()
{
    std::ifstream statm("/proc/self/statm");
    long pages = 0;
    long resident = 0;
    if (!(statm >> pages >> resident))
        return 0;
    return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

double
toSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

std::string
usageJson(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"user_s\":%.6f,\"sys_s\":%.6f,\"maxrss_kb\":%ld,"
                  "\"vol_csw\":%ld,\"invol_csw\":%ld}",
                  toSeconds(ru.ru_utime), toSeconds(ru.ru_stime),
                  ru.ru_maxrss, ru.ru_nvcsw,
                  ru.ru_nivcsw);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", v);
    return buf;
}

std::string
resultJson(const engine::RunResult &r)
{
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"sim_ticks\":%" PRIu64 ",\"quanta\":%" PRIu64
        ",\"packets\":%" PRIu64 ",\"stragglers\":%" PRIu64
        ",\"next_quantum\":%" PRIu64 ",\"lateness_ticks\":%" PRIu64
        ",\"mean_quantum_ticks\":%.17g,\"metric\":%.17g"
        ",\"retransmits\":%" PRIu64 ",\"dropped\":%" PRIu64
        ",\"ckpt_images\":%" PRIu64 ",\"ckpt_bytes\":%" PRIu64
        ",\"ckpt_write_ns\":%.0f,\"phase_sort_ns\":%" PRIu64
        ",\"phase_exchange_ns\":%" PRIu64 ",\"phase_merge_ns\":%" PRIu64
        ",\"phase_dispatch_ns\":%" PRIu64 ",\"timeline_quanta\":%zu"
        ",\"state_hash\":%s}",
        static_cast<std::uint64_t>(r.simTicks), r.quanta, r.packets,
        r.stragglers, r.nextQuantumDeliveries, r.latenessTicks,
        r.meanQuantumTicks, r.metric, r.retransmits, r.droppedFrames,
        r.checkpointsWritten, r.checkpointBytes, r.checkpointWriteNs,
        r.phaseSortNs, r.phaseExchangeNs, r.phaseMergeNs,
        r.phaseDispatchNs, r.timeline.size(),
        hex(r.finalStateHash).c_str());
    return buf;
}

/** Decode the newest image in @p dir through the ckpt load path. */
std::string
checkCheckpoints(const std::string &dir)
{
    std::size_t files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files += entry.path().extension() == ".aqc";
    ckpt::CheckpointManager manager(dir, 0, 0);
    ckpt::CheckpointImage image;
    std::string path;
    ckpt::CkptError error;
    const bool ok = manager.loadBest(image, path, error);
    std::filesystem::remove_all(dir);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"decoded\":%s,\"files\":%zu,\"quantum\":%" PRIu64
                  ",\"image_hash\":%s}",
                  ok ? "true" : "false", files, image.quantumIndex,
                  hex(image.stateHash).c_str());
    return buf;
}

int
printInfo()
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    std::printf("{\"build_type\":\"%s\",\"optimized\":%s,"
                "\"ndebug\":%s,\"compiler\":\"%s\"}\n",
                AQSIM_PERFBENCH_BUILD_TYPE, optimized ? "true" : "false",
                ndebug ? "true" : "false", AQSIM_PERFBENCH_COMPILER);
    return 0;
}

int
runBench(const Args &args)
{
    const std::string mode = args.getString("mode", "run");
    const std::string app = args.getString("app", "nas.ep");
    const auto nodes = static_cast<std::size_t>(args.getInt("nodes", 8));
    const double scale = args.getDouble("scale", 1.0);
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const std::string engine_kind =
        args.getString("engine", "sequential");
    const bool trace = args.getBool("trace", false);
    if (mode != "run" && mode != "setup")
        fatal("unknown mode '%s' (run|setup|info)", mode.c_str());
    if (engine_kind != "sequential" && engine_kind != "threaded" &&
        engine_kind != "distributed")
        fatal("unknown engine '%s'", engine_kind.c_str());

    engine::EngineOptions options;
    options.numWorkers = static_cast<std::size_t>(args.getInt("workers", 0));
    options.phaseStats = trace;
    options.recordTimeline = trace;
    options.checkpointEvery =
        static_cast<std::uint64_t>(args.getInt("checkpoint-every", 0));
    options.checkpointDir = args.getString("checkpoint-dir", "");
    options.checkpointKeepLast = 0;

    auto workload = workloads::makeWorkload(app, nodes, scale);
    const auto params = harness::defaultCluster(nodes, seed);
    auto policy = core::parsePolicy(args.getString("policy", "fixed:1us"));

    double setup_s = 0.0, run_s = 0.0, hash_s = 0.0, teardown_s = 0.0;
    long build_rss_kb = 0;
    engine::RunResult result;
    const auto wall_start = Clock::now();

    if (mode == "run" && engine_kind == "distributed") {
        engine::DistributedEngine engine(options);
        const auto t = Clock::now();
        result = engine.run(params, *workload, *policy);
        run_s = secondsSince(t);
    } else {
        const long rss_before = residentKb();
        auto t = Clock::now();
        auto cluster = std::make_unique<engine::Cluster>(params, *workload);
        setup_s = secondsSince(t);
        build_rss_kb = residentKb() - rss_before;

        if (mode == "run") {
            t = Clock::now();
            if (engine_kind == "sequential")
                result = engine::SequentialEngine(options).run(*cluster,
                                                               *policy);
            else
                result = engine::ThreadedEngine(options).run(*cluster,
                                                             *policy);
            run_s = secondsSince(t);
            if (trace) {
                t = Clock::now();
                const std::uint64_t h = cluster->stateHash();
                hash_s = secondsSince(t);
                if (h != result.finalStateHash)
                    fatal("stateHash() after the run differs from the "
                          "run's finalStateHash");
            }
        }

        t = Clock::now();
        cluster.reset();
        teardown_s = secondsSince(t);
    }
    const double wall_s = secondsSince(wall_start);

    // Taken before the image check, so decoding cannot show up in the
    // process's peak RSS or CPU time.
    const std::string self_usage = usageJson(RUSAGE_SELF);
    const std::string children_usage = usageJson(RUSAGE_CHILDREN);
    std::string ckpt_check = "null";
    if (mode == "run" && !options.checkpointDir.empty())
        ckpt_check = checkCheckpoints(options.checkpointDir);

    std::printf("{\"mode\":\"%s\",\"engine\":\"%s\",\"spans\":{"
                "\"setup_s\":%.9f,\"run_s\":%.9f,\"hash_s\":%.9f,"
                "\"teardown_s\":%.9f,\"wall_s\":%.9f},"
                "\"build_rss_kb\":%ld,\"result\":%s,\"self\":%s,"
                "\"children\":%s,\"ckpt_check\":%s}\n",
                mode.c_str(), engine_kind.c_str(), setup_s, run_s, hash_s,
                teardown_s, wall_s, build_rss_kb, resultJson(result).c_str(),
                self_usage.c_str(), children_usage.c_str(),
                ckpt_check.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args(argc, argv,
                    {"mode", "app", "nodes", "scale", "seed", "policy",
                     "engine", "workers", "checkpoint-every",
                     "checkpoint-dir", "trace"});
    Logger::setVerbose(false);
    if (args.getString("mode", "run") == "info")
        return printInfo();
    try {
        return runBench(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "aqsim_perfbench: %s\n", e.what());
        return 1;
    }
}
