/**
 * @file
 * A small self-describing command-line option parser, the one argv
 * parser behind every `drsim <verb>`.  Long options only: `--name
 * value`, `--name=value`, and boolean `--name`.
 *
 * Integer values are a whole token: `0x` hex, or decimal with an
 * optional leading `-` (so "010" is ten, not octal eight).  Each
 * integer option carries a `[lo, hi]` range; overflow and anything
 * outside the range is rejected, never narrowed or clamped.
 */

#ifndef DRSIM_SIM_OPTIONS_HH
#define DRSIM_SIM_OPTIONS_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace drsim {

class OptionParser
{
  public:
    /** Register options; the pointed-to defaults double as values. */
    void addInt(const std::string &name, std::int64_t *value,
                const std::string &help,
                std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
                std::int64_t hi = std::numeric_limits<std::int64_t>::max());
    void addString(const std::string &name, std::string *value,
                   const std::string &help);
    /** A repeatable string option: each occurrence appends. */
    void addStrings(const std::string &name,
                    std::vector<std::string> *values,
                    const std::string &help);
    void addFlag(const std::string &name, bool *value,
                 const std::string &help);

    /**
     * Collect non-option arguments into @p out instead of rejecting
     * them; @p usage names them on the help text's usage line (for
     * example "[experiment...]").
     */
    void allowPositionals(std::vector<std::string> *out,
                          const std::string &usage);

    /**
     * Parse argv (excluding argv[0]).  Returns true on success;
     * on failure error() describes the problem.  `--help` sets
     * helpRequested() and returns true without parsing further.
     */
    bool parse(int argc, const char *const *argv);

    /**
     * parse() as a command's front door: on a usage error print
     * error() and the help text to stderr and return exit code 2; on
     * `--help` print the help text and return 0; nullopt when the
     * command should go on and run.
     */
    std::optional<int> parseCommandLine(int argc,
                                        const char *const *argv,
                                        const std::string &program);

    bool helpRequested() const { return helpRequested_; }
    const std::string &error() const { return error_; }

    /** Render the option table for --help. */
    std::string helpText(const std::string &program) const;

  private:
    enum class Kind { Int, String, Strings, Flag };

    struct Option
    {
        std::string name;
        Kind kind;
        void *target;
        std::string help;
        std::string defaultRepr;
        std::int64_t lo = 0;
        std::int64_t hi = 0;
    };

    void add(Option opt);
    const Option *find(const std::string &name) const;
    bool assign(const Option &opt, const std::string &value);

    std::vector<Option> options_;
    std::vector<std::string> *positionals_ = nullptr;
    std::string positionalUsage_;
    bool helpRequested_ = false;
    std::string error_;
};

} // namespace drsim

#endif // DRSIM_SIM_OPTIONS_HH
