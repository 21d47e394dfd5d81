/**
 * @file
 * DES-kernel throughput microbenchmark: drives the canonical
 * social-network application with the open-loop Poisson client for a
 * fixed span of simulated time and reports raw kernel throughput —
 * events/sec and requests/sec of wall-clock time. This is the number
 * the event kernel (binary-heap queue, batched dispatch, SBO callbacks,
 * object pools) is judged by; the historical record lives in the
 * checked-in BENCH_kernel.json trajectory.
 *
 * The measured run is the canonical single simulation (the PR-1
 * baseline config: one cluster, one client, seed 2024), whose
 * event/cancelled/request counts are bit-stable and pinned by
 * scripts/bench_smoke.py. Every scheduled event is either processed,
 * cancelled before it ran (here, a superseded CPU completion), or still
 * pending when the run stops.
 *
 * The output also records the process's peak resident set
 * (`getrusage` `ru_maxrss` after the last rep), which
 * scripts/bench_smoke.py bounds.
 *
 * Results are written to build/bench_out/ by default so local runs
 * never clobber the checked-in reference; `--update-reference` appends
 * a new trajectory entry to the source-tree BENCH_kernel.json (this is
 * the only way the reference changes).
 *
 * Environment:
 *   URSA_BENCH_REPS       repetitions (default 5; best rep is reported)
 *   URSA_BENCH_SIM_MIN    simulated minutes per rep (default 10)
 *   URSA_BENCH_OUT        output JSON path (default
 *                         <build>/bench_out/BENCH_kernel.json)
 *   URSA_BENCH_LABEL      trajectory-entry label for --update-reference
 *   URSA_BENCH_COMMIT     commit id for --update-reference (default:
 *                         git rev-parse --short HEAD)
 *   URSA_TRACE_SAMPLING   request-sampling rate of the span tracer
 *                         (default 0 = disabled; used by the CI smoke
 *                         to bound tracing overhead and verify the
 *                         zero-perturbation contract)
 */

#include "common.h"

#include "sim/client.h"
#include "workload/arrival.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/resource.h>

#ifndef URSA_BENCH_OUT_DIR
#define URSA_BENCH_OUT_DIR "bench_out"
#endif
#ifndef URSA_BENCH_REFERENCE
#define URSA_BENCH_REFERENCE "BENCH_kernel.json"
#endif

namespace
{

long
envLong(const char *name, long fallback)
{
    const char *v = std::getenv(name);
    return v ? std::atol(v) : fallback;
}

std::string
envStr(const char *name, const std::string &fallback)
{
    const char *v = std::getenv(name);
    return v ? v : fallback;
}

struct RunResult
{
    double wallSec = 0.0;
    std::uint64_t events = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t pending = 0;
    std::uint64_t requests = 0;

    double eventsPerSec() const { return events / wallSec; }
    double requestsPerSec() const { return requests / wallSec; }
};

/** One canonical run: the app cluster plus its open-loop client. */
RunResult
runOnce(const ursa::apps::AppSpec &app, ursa::sim::SimTime simSpan,
        std::uint64_t seed)
{
    using namespace ursa;
    sim::Cluster cluster(seed);
    app.instantiate(cluster);
    if (const char *s = std::getenv("URSA_TRACE_SAMPLING"))
        cluster.tracer().setSampling(std::atof(s));
    sim::OpenLoopClient client(cluster,
                               workload::constantRate(app.nominalRps),
                               sim::fixedMix(app.exploreMix), seed + 5);
    client.start(0);

    const auto t0 = std::chrono::steady_clock::now();
    cluster.run(simSpan);
    const auto t1 = std::chrono::steady_clock::now();

    RunResult r;
    r.wallSec = std::chrono::duration<double>(t1 - t0).count();
    r.events = cluster.events().processed();
    r.cancelled = cluster.events().cancelled();
    r.pending = cluster.events().pending();
    r.requests = client.submitted();
    return r;
}

RunResult
bestOf(const ursa::apps::AppSpec &app, ursa::sim::SimTime simSpan,
       long reps)
{
    RunResult best;
    for (long i = 0; i < reps; ++i) {
        const RunResult r = runOnce(app, simSpan, 2024);
        std::printf(
            "  rep %ld: %8.3f s wall, %10llu events (%.3fM ev/s), "
            "%llu cancelled, %llu pending, "
            "%8llu requests (%.1fk req/s)\n",
            i, r.wallSec, static_cast<unsigned long long>(r.events),
            r.eventsPerSec() / 1e6,
            static_cast<unsigned long long>(r.cancelled),
            static_cast<unsigned long long>(r.pending),
            static_cast<unsigned long long>(r.requests),
            r.requestsPerSec() / 1e3);
        if (best.wallSec == 0.0 || r.eventsPerSec() > best.eventsPerSec())
            best = r;
    }
    return best;
}

/** Peak resident set of this process so far, in MiB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string
isoDate()
{
    if (const char *d = std::getenv("URSA_BENCH_DATE"))
        return d;
    const std::time_t t = std::time(nullptr);
    char buf[16];
    std::strftime(buf, sizeof buf, "%Y-%m-%d", std::localtime(&t));
    return buf;
}

std::string
gitCommit()
{
    if (const char *c = std::getenv("URSA_BENCH_COMMIT"))
        return c;
    const std::string cmd = "git -C \"" +
                            std::filesystem::path(URSA_BENCH_REFERENCE)
                                .parent_path()
                                .string() +
                            "\" rev-parse --short HEAD 2>/dev/null";
    if (FILE *p = popen(cmd.c_str(), "r")) {
        char buf[64] = {0};
        if (fgets(buf, sizeof buf, p) != nullptr)
            buf[std::strcspn(buf, "\n")] = '\0';
        pclose(p);
        if (buf[0] != '\0')
            return buf;
    }
    return "unknown";
}

/** Serialize one trajectory entry (the reference-file record). */
std::string
entryJson(const RunResult &single, double rssMb, const std::string &label,
          const std::string &indent)
{
    std::ostringstream os;
    os.precision(10);
    os << indent << "{\n"
       << indent << "  \"label\": \"" << label << "\",\n"
       << indent << "  \"date\": \"" << isoDate() << "\",\n"
       << indent << "  \"commit\": \"" << gitCommit() << "\",\n"
       << indent << "  \"single\": {\n"
       << indent << "    \"events\": " << single.events << ",\n"
       << indent << "    \"cancelled\": " << single.cancelled << ",\n"
       << indent << "    \"requests\": " << single.requests << ",\n"
       << indent << "    \"wall_sec\": " << single.wallSec << ",\n"
       << indent << "    \"events_per_sec\": " << single.eventsPerSec()
       << ",\n"
       << indent << "    \"requests_per_sec\": "
       << single.requestsPerSec() << ",\n"
       << indent << "    \"peak_rss_mb\": " << rssMb << "\n"
       << indent << "  }\n"
       << indent << "}";
    return os.str();
}

/**
 * Append `entry` to the "trajectory" array of the checked-in reference
 * (a file whose format this benchmark owns). Returns false when the
 * array cannot be located.
 */
bool
appendTrajectoryEntry(const std::string &path, const std::string &entry)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();

    const std::size_t arrayKey = text.find("\"trajectory\": [");
    if (arrayKey == std::string::npos)
        return false;
    const std::size_t open = text.find('[', arrayKey);
    int depth = 0;
    std::size_t close = std::string::npos;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '[')
            ++depth;
        else if (text[i] == ']' && --depth == 0) {
            close = i;
            break;
        }
    }
    if (close == std::string::npos)
        return false;

    // Trim trailing whitespace inside the array, then splice in
    // ",\n<entry>\n  " before the closing bracket.
    std::size_t end = close;
    while (end > open + 1 &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    const bool empty = end == open + 1;
    const std::string splice =
        (empty ? std::string("\n") : std::string(",\n")) + entry + "\n  ";
    text = text.substr(0, end) + splice + text.substr(close);

    std::ofstream out(path, std::ios::trunc);
    out << text;
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ursa;

    bool updateReference = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--update-reference") == 0) {
            updateReference = true;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }

    const long reps = std::max(1L, envLong("URSA_BENCH_REPS", 5));
    const long simMin = std::max(1L, envLong("URSA_BENCH_SIM_MIN", 10));
    const std::string outPath = envStr(
        "URSA_BENCH_OUT",
        std::string(URSA_BENCH_OUT_DIR) + "/BENCH_kernel.json");

    const apps::AppSpec app = bench::makeApp(bench::AppId::Social);
    const sim::SimTime simSpan = simMin * sim::kMin;

    std::printf("kernel bench: %s, %ld sim-min x %ld reps\n",
                app.name.c_str(), simMin, reps);

    const RunResult single = bestOf(app, simSpan, reps);
    const double rssMb = peakRssMb();

    std::printf("best: %.3fM events/s, %.1fk requests/s, peak RSS %.1f MB\n",
                single.eventsPerSec() / 1e6,
                single.requestsPerSec() / 1e3, rssMb);

    const std::filesystem::path out(outPath);
    if (out.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(out.parent_path(), ec);
    }
    std::ofstream os(outPath);
    os.precision(10);
    os << "{\n"
       << "  \"app\": \"" << app.name << "\",\n"
       << "  \"sim_minutes\": " << simMin << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"events\": " << single.events << ",\n"
       << "  \"cancelled\": " << single.cancelled << ",\n"
       << "  \"requests\": " << single.requests << ",\n"
       << "  \"wall_sec\": " << single.wallSec << ",\n"
       << "  \"events_per_sec\": " << single.eventsPerSec() << ",\n"
       << "  \"requests_per_sec\": " << single.requestsPerSec() << ",\n"
       << "  \"peak_rss_mb\": " << rssMb << "\n"
       << "}\n";
    if (os)
        std::printf("wrote %s\n", outPath.c_str());
    else
        std::fprintf(stderr, "failed to write %s\n", outPath.c_str());

    if (updateReference) {
        const std::string label =
            envStr("URSA_BENCH_LABEL", "local update");
        const std::string entry =
            entryJson(single, rssMb, label, "    ");
        if (appendTrajectoryEntry(URSA_BENCH_REFERENCE, entry)) {
            std::printf("appended trajectory entry to %s\n",
                        URSA_BENCH_REFERENCE);
        } else {
            std::fprintf(stderr,
                         "failed to update reference %s (no trajectory "
                         "array?)\n",
                         URSA_BENCH_REFERENCE);
            return 1;
        }
    }
    return 0;
}
