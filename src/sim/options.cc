#include "sim/options.hh"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"

namespace drsim {

namespace {

/** All of @p text as an int64: `0x` hex, or decimal with an optional
 *  leading '-'; nullopt for anything else, overflow included. */
std::optional<std::int64_t>
parseInteger(const std::string &text)
{
    constexpr std::uint64_t kMax = std::numeric_limits<std::int64_t>::max();
    if (text.rfind("0x", 0) == 0 || text.rfind("0X", 0) == 0) {
        const char *begin = text.c_str() + 2;
        const char *end = text.c_str() + text.size();
        std::uint64_t v = 0;
        const auto [ptr, ec] = std::from_chars(begin, end, v, 16);
        if (ec != std::errc() || ptr == begin || ptr != end || v > kMax)
            return std::nullopt;
        return std::int64_t(v);
    }
    const bool negative = text.rfind('-', 0) == 0;
    const std::optional<std::uint64_t> magnitude = parseDecimal(
        text.c_str() + (negative ? 1 : 0), 0, negative ? kMax + 1 : kMax);
    if (!magnitude.has_value())
        return std::nullopt;
    return negative ? std::int64_t(0 - *magnitude)
                    : std::int64_t(*magnitude);
}

} // namespace

void
OptionParser::add(Option opt)
{
    if (find(opt.name) != nullptr)
        DRSIM_PANIC("duplicate option --", opt.name);
    options_.push_back(std::move(opt));
}

void
OptionParser::addInt(const std::string &name, std::int64_t *value,
                     const std::string &help, std::int64_t lo,
                     std::int64_t hi)
{
    add({name, Kind::Int, value, help, std::to_string(*value), lo, hi});
}

void
OptionParser::addString(const std::string &name, std::string *value,
                        const std::string &help)
{
    add({name, Kind::String, value, help, *value});
}

void
OptionParser::addStrings(const std::string &name,
                         std::vector<std::string> *values,
                         const std::string &help)
{
    add({name, Kind::Strings, values, help, "none"});
}

void
OptionParser::addFlag(const std::string &name, bool *value,
                      const std::string &help)
{
    add({name, Kind::Flag, value, help, *value ? "true" : "false"});
}

void
OptionParser::allowPositionals(std::vector<std::string> *out,
                               const std::string &usage)
{
    positionals_ = out;
    positionalUsage_ = usage;
}

const OptionParser::Option *
OptionParser::find(const std::string &name) const
{
    for (const Option &o : options_)
        if (o.name == name)
            return &o;
    return nullptr;
}

bool
OptionParser::assign(const Option &opt, const std::string &value)
{
    switch (opt.kind) {
      case Kind::Int: {
        const std::optional<std::int64_t> v = parseInteger(value);
        if (!v.has_value() || *v < opt.lo || *v > opt.hi) {
            error_ = "--" + opt.name + " expects an integer in " +
                     std::to_string(opt.lo) + ".." +
                     std::to_string(opt.hi) + ", got '" + value + "'";
            return false;
        }
        *static_cast<std::int64_t *>(opt.target) = *v;
        return true;
      }
      case Kind::String:
        *static_cast<std::string *>(opt.target) = value;
        return true;
      case Kind::Strings:
        static_cast<std::vector<std::string> *>(opt.target)
            ->push_back(value);
        return true;
      case Kind::Flag:
        if (value == "true" || value == "1") {
            *static_cast<bool *>(opt.target) = true;
        } else if (value == "false" || value == "0") {
            *static_cast<bool *>(opt.target) = false;
        } else {
            error_ = "--" + opt.name + " expects true/false, got '" +
                     value + "'";
            return false;
        }
        return true;
    }
    return false;
}

bool
OptionParser::parse(int argc, const char *const *argv)
{
    error_.clear();
    helpRequested_ = false;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            helpRequested_ = true;
            return true;
        }
        if (positionals_ != nullptr && arg.rfind('-', 0) != 0) {
            positionals_->push_back(arg);
            continue;
        }
        if (arg.rfind("--", 0) != 0) {
            error_ = "unexpected argument '" + arg + "'";
            return false;
        }
        arg = arg.substr(2);
        std::string value;
        bool has_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }
        const Option *opt = find(arg);
        if (opt == nullptr) {
            error_ = "unknown option '--" + arg + "'";
            return false;
        }
        if (opt->kind == Kind::Flag && !has_value) {
            *static_cast<bool *>(opt->target) = true;
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc) {
                error_ = "--" + arg + " needs a value";
                return false;
            }
            value = argv[++i];
        }
        if (!assign(*opt, value))
            return false;
    }
    return true;
}

std::optional<int>
OptionParser::parseCommandLine(int argc, const char *const *argv,
                               const std::string &program)
{
    if (!parse(argc, argv)) {
        std::fprintf(stderr, "%s: %s\n%s", program.c_str(),
                     error_.c_str(), helpText(program).c_str());
        return 2;
    }
    if (helpRequested_) {
        std::printf("%s", helpText(program).c_str());
        return 0;
    }
    return std::nullopt;
}

std::string
OptionParser::helpText(const std::string &program) const
{
    std::ostringstream os;
    os << "usage: " << program << " [options]";
    if (!positionalUsage_.empty())
        os << " " << positionalUsage_;
    os << "\n\noptions:\n";
    for (const Option &o : options_) {
        os << "  --" << o.name;
        if (o.kind != Kind::Flag)
            os << " <value>";
        os << "\n      " << o.help << " (default: " << o.defaultRepr
           << ")\n";
    }
    return os.str();
}

} // namespace drsim
