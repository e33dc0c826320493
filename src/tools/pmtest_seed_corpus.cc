/**
 * @file
 * pmtest_seed_corpus: writes a deterministic trace file containing
 * one seeded bug per fixable finding class (x86 model), for
 * exercising the detect→repair→verify loop end to end:
 *
 *   pmtest_seed_corpus corpus.trace
 *   pmtest_check --fix-hints=hints.json corpus.trace
 *
 * Every trace is a minimal reproduction of one bug class, each op
 * tagged with a synthetic source location naming the class, so the
 * emitted fixhints document is self-describing. The corpus itself
 * lives in trace/seed_corpus.cc (shared with the kernel-equivalence
 * tests) and is fully deterministic: same library version,
 * byte-identical file.
 *
 * Exit status: 0 on success, 2 on usage/write errors.
 */

#include <cstdio>
#include <vector>

#include "trace/seed_corpus.hh"
#include "trace/trace_io.hh"
#include "util/cli.hh"

int
main(int argc, char **argv)
{
    using namespace pmtest;

    util::CliParser cli("pmtest_seed_corpus", "<out.trace>");
    cli.positionalCount(1, 1);
    std::vector<std::string> positionals;
    const auto status = cli.parse(argc, argv, &positionals);
    if (status != util::CliStatus::Ok)
        return util::cliExitCode(status);
    const std::string out_path = positionals[0];

    std::vector<SeedTrace> corpus = seedCorpusTraces();
    std::vector<Trace> traces;
    traces.reserve(corpus.size());
    for (SeedTrace &seed : corpus)
        traces.push_back(std::move(seed.trace));

    if (!saveTracesToFile(out_path, traces)) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 2;
    }
    std::printf("%s: %zu seeded bug traces\n", out_path.c_str(),
                traces.size());
    for (const SeedTrace &seed : corpus)
        std::printf("  %s\n", seed.name);
    return 0;
}
