/**
 * @file
 * The one command-line flag parser every tool and bench harness in
 * the repo goes through. Before this existed, the strict-from_chars
 * numeric helper, the usage()/exit-2 dance and the "--flag=value"
 * prefix matching were copied (with drift: pmtest_recall used
 * strtol, bench_kernel accepted "--metrics-port=12garbage" via the
 * same) across pmtest_check, pmtest_recall and the benches. CliParser
 * centralizes the contract:
 *
 *  - a typed flag table (bool switches, strictly-parsed sizes with
 *    clamp/max bounds, strings, optional-value strings, named
 *    choices) declared once per tool;
 *  - `--help`/`-h` prints the generated usage plus one help line per
 *    flag to stdout and reports CliStatus::Help (callers exit 0);
 *  - every malformed value and every unknown `-`-prefixed argument
 *    prints a one-line diagnostic followed by the usage text to
 *    stderr and reports CliStatus::Error — callers exit 2, uniformly,
 *    which is the flag-error contract CI asserts against all tools;
 *  - numeric values go through std::from_chars with full-string
 *    consumption: empty values, trailing junk and overflow are hard
 *    errors, never silently 0 as with atol/strtol.
 *
 * Positional arguments are collected in order; min/max positional
 * counts are enforced by parse() when configured.
 */

#ifndef PMTEST_UTIL_CLI_HH
#define PMTEST_UTIL_CLI_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pmtest::util
{

/** Outcome of one CliParser::parse call. */
enum class CliStatus
{
    Ok,    ///< flags parsed; proceed
    Help,  ///< --help was printed to stdout; exit 0
    Error, ///< diagnostic + usage printed to stderr; exit 2
};

/** One value a choice flag accepts, mapped to an integer code. */
struct CliChoice
{
    const char *name;
    int value;
};

/** Declarative command-line parser with uniform error reporting. */
class CliParser
{
  public:
    /**
     * @param tool         program name printed in the usage line
     *                     (argv[0] overrides it at parse time)
     * @param positionals  rendering of the positional arguments in
     *                     the usage line (e.g. "<trace-file-or-dir>...")
     */
    explicit CliParser(std::string tool, std::string positionals = "");

    /** A plain switch: `--name` sets *out to true. */
    void addFlag(const char *name, bool *out, const char *help);

    /**
     * A strictly-parsed numeric option `--name=N`. Values above
     * @p maxValue are usage errors; values below @p clampMin are
     * clamped up to it (the 0-means-1 convention of --decoders and
     * friends). The full value string must parse: empty, trailing
     * junk and overflow are usage errors.
     */
    void addSize(const char *name, size_t *out, const char *help,
                 size_t clampMin = 0, size_t maxValue = ~size_t{0});

    /** A string option `--name=VALUE`; the empty value is an error. */
    void addString(const char *name, std::string *out,
                   const char *help);

    /**
     * A string option whose value is optional: bare `--name` sets
     * only *present; `--name=VALUE` also overwrites *out (empty
     * VALUE is an error). The --fix-hints[=FILE] shape.
     */
    void addOptionalString(const char *name, bool *present,
                           std::string *out, const char *help);

    /**
     * A named-choice option `--name=CHOICE`. Unknown choices are
     * usage errors listing the accepted names.
     */
    void addChoice(const char *name, int *out,
                   std::vector<CliChoice> choices, const char *help);

    /** Require between @p min and @p max positional arguments. */
    void positionalCount(size_t min, size_t max = ~size_t{0});

    /**
     * Parse @p argv. Positional (non-`-`) arguments are appended to
     * @p positionals (required when the parser was configured with a
     * positional rendering or count). On Error a diagnostic and the
     * usage text have already been printed to stderr.
     */
    CliStatus parse(int argc, char **argv,
                    std::vector<std::string> *positionals = nullptr);

    /** Print the one-line usage summary to @p out. */
    void printUsage(std::FILE *out) const;

    /** Print usage plus the per-flag help table (--help output). */
    void printHelp(std::FILE *out) const;

    /**
     * Report a post-parse usage error (a flag combination the table
     * cannot express): prints "@p message" and the usage text to
     * stderr. @return CliStatus::Error so callers can
     * `return cliExit(parser.usageError(...))`.
     */
    CliStatus usageError(const std::string &message) const;

  private:
    enum class Kind : uint8_t
    {
        Flag,
        Size,
        String,
        OptionalString,
        Choice,
    };

    struct Spec
    {
        std::string name; ///< including leading dashes ("--workers")
        Kind kind;
        const char *help;
        bool *boolOut = nullptr;
        size_t *sizeOut = nullptr;
        std::string *stringOut = nullptr;
        int *choiceOut = nullptr;
        std::vector<CliChoice> choices;
        size_t clampMin = 0;
        size_t maxValue = ~size_t{0};
    };

    /** "--name=N" / "--name=FILE" / "--name=x|y" usage rendering. */
    std::string usageToken(const Spec &spec) const;

    CliStatus fail(const std::string &message) const;

    std::string tool_;
    std::string positionals_;
    std::vector<Spec> specs_;
    size_t minPositionals_ = 0;
    size_t maxPositionals_ = ~size_t{0};
};

/** Map a CliStatus to the process exit code (Ok asserts false). */
int cliExitCode(CliStatus status);

} // namespace pmtest::util

#endif // PMTEST_UTIL_CLI_HH
