/**
 * @file
 * rpubench: one workload of the repository benchmark per process.
 *
 *   rpubench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--trace-out <file>] [--setup-only]
 *
 * Prints a human-readable metric table (name, value, unit, clock),
 * then, as its last line, one JSON object with the run's correctness
 * verdict, attempt/failure counts, setup time and metrics:
 * end-to-end metrics with --trace 0, per-layer metrics with
 * --trace 1. Exits 1 if any correctness gate fails, 2 on bad usage.
 * run.py builds this binary and wraps it; see run.py for the
 * benchmark's contract.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "harness.hh"

using namespace rpubench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "rpubench: %s\nusage: rpubench --workload "
                 "serve_mulplain|serve_mixed_2dev|dse_ntt64k --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] "
                 "[--setup-only]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            opt.trace = value() != "0";
        else if (arg == "--trace-out")
            opt.traceOut = value();
        else if (arg == "--setup-only")
            opt.setupOnly = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0 && opt.seconds <= 600))
        usage("--seconds must be in (0, 600]");
    return opt;
}

void
printJsonMetrics(const std::vector<Metric> &metrics)
{
    std::printf("\"metrics\":{");
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\","
                    "\"clock\":\"%s\"}",
                    i ? "," : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str(),
                    metrics[i].clock.c_str());
    }
    std::printf("}");
}

/** The catalogue with this run's values filled in; a value the
 *  workload produced that the catalogue lacks is a harness bug. */
std::vector<Metric>
fillCatalogue(const std::vector<Metric> &produced, Report &report)
{
    std::map<std::string, double> values;
    for (const Metric &m : produced)
        values[m.name] = m.value;
    std::vector<Metric> out = perLayerCatalogue();
    for (Metric &m : out) {
        auto it = values.find(m.name);
        if (it != values.end()) {
            m.value = it->second;
            values.erase(it);
        }
    }
    for (const auto &kv : values)
        report.violate("per-layer metric missing from catalogue: " +
                       kv.first);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Tracer tracer;

    Report report;
    if (opt.workload == "serve_mulplain")
        report = runServeMulPlain(opt, tracer);
    else if (opt.workload == "serve_mixed_2dev")
        report = runServeMixed2Dev(opt, tracer);
    else if (opt.workload == "dse_ntt64k")
        report = runDseNtt64k(opt, tracer);
    else
        usage(("unknown workload " + opt.workload).c_str());

    std::vector<Metric> metrics;
    if (!opt.setupOnly) {
        if (opt.trace) {
            report.perLayer.push_back(
                {"trace.spans", double(tracer.size()), "count", "-"});
            metrics = fillCatalogue(report.perLayer, report);
            if (!opt.traceOut.empty() &&
                !tracer.writeChromeJson(opt.traceOut))
                report.violate("could not write " + opt.traceOut);
        } else {
            metrics = report.endToEnd;
        }
    }

    std::printf("workload %s seed %llu seconds %g trace %d\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                opt.seconds, opt.trace ? 1 : 0);
    for (const std::string &line : report.notes)
        std::printf("  %s\n", line.c_str());
    std::printf("  %-40s %16s  %-7s %s\n", "metric", "value", "unit",
                "clock");
    if (metrics.empty() || opt.trace)
        std::printf("  %-40s %16.6f  %-7s %s\n", "setup_s",
                    report.setupSeconds, "s", "wall");
    for (const Metric &m : metrics)
        std::printf("  %-40s %16.6f  %-7s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.clock.c_str());

    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"setup_s\":%.17g,",
                report.correct ? "true" : "false",
                (unsigned long long)report.attempted,
                (unsigned long long)report.failed, report.setupSeconds);
    printJsonMetrics(metrics);
    std::printf("}\n");
    std::fflush(stdout);
    return report.correct ? 0 : 1;
}
