#include "json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "logging.hh"

namespace drsim {
namespace json {

// --------------------------------------------------------------- Value

bool
Value::asBool() const
{
    if (kind_ != Kind::Bool)
        fatal("JSON value is not a bool");
    return bool_;
}

double
Value::asNumber() const
{
    if (kind_ != Kind::Number)
        fatal("JSON value is not a number");
    return num_;
}

std::uint64_t
Value::asU64() const
{
    const double v = asNumber();
    if (v < 0.0 || v != std::floor(v) || v > 1.8446744073709552e19)
        fatal("JSON number ", v, " is not an unsigned integer");
    return static_cast<std::uint64_t>(v);
}

const std::string &
Value::asString() const
{
    if (kind_ != Kind::String)
        fatal("JSON value is not a string");
    return str_;
}

const std::vector<Value> &
Value::items() const
{
    if (kind_ != Kind::Array)
        fatal("JSON value is not an array");
    return items_;
}

const std::vector<Value::Member> &
Value::members() const
{
    if (kind_ != Kind::Object)
        fatal("JSON value is not an object");
    return members_;
}

const Value *
Value::find(const std::string &key) const
{
    for (const Member &m : members())
        if (m.first == key)
            return &m.second;
    return nullptr;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *v = find(key);
    if (v == nullptr)
        fatal("JSON object has no member '", key, "'");
    return *v;
}

const Value &
Value::at(std::size_t index) const
{
    const auto &a = items();
    if (index >= a.size())
        fatal("JSON array index ", index, " out of range (size ",
              a.size(), ")");
    return a[index];
}

Value
Value::makeBool(bool b)
{
    Value v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

Value
Value::makeNumber(double n)
{
    Value v;
    v.kind_ = Kind::Number;
    v.num_ = n;
    return v;
}

Value
Value::makeString(std::string s)
{
    Value v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

Value
Value::makeArray(std::vector<Value> items)
{
    Value v;
    v.kind_ = Kind::Array;
    v.items_ = std::move(items);
    return v;
}

Value
Value::makeObject(std::vector<Member> members)
{
    Value v;
    v.kind_ = Kind::Object;
    v.members_ = std::move(members);
    return v;
}

// -------------------------------------------------------------- Parser

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parseDocument()
    {
        skipWs();
        Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            err("trailing content after the top-level value");
        return v;
    }

  private:
    [[noreturn]] void
    err(const std::string &what) const
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal("JSON parse error at line ", line, ", column ", col,
              ": ", what);
    }

    bool atEnd() const { return pos_ >= text_.size(); }

    char
    peek() const
    {
        if (atEnd())
            err("unexpected end of input");
        return text_[pos_];
    }

    char
    next()
    {
        const char c = peek();
        ++pos_;
        return c;
    }

    void
    expect(char c)
    {
        if (next() != c)
            err(std::string("expected '") + c + "'");
    }

    void
    skipWs()
    {
        while (!atEnd()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p)
            if (atEnd() || text_[pos_++] != *p)
                err(std::string("invalid literal (expected '") + word +
                    "')");
    }

    Value
    parseValue()
    {
        if (atEnd())
            err("unexpected end of input");
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return Value::makeString(parseString());
          case 't': literal("true"); return Value::makeBool(true);
          case 'f': literal("false"); return Value::makeBool(false);
          case 'n': literal("null"); return Value::makeNull();
          default: return parseNumber();
        }
    }

    Value
    parseObject()
    {
        expect('{');
        std::vector<Value::Member> members;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return Value::makeObject(std::move(members));
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                err("object key must be a string");
            std::string key = parseString();
            skipWs();
            expect(':');
            skipWs();
            members.emplace_back(std::move(key), parseValue());
            skipWs();
            const char c = next();
            if (c == '}')
                break;
            if (c != ',')
                err("expected ',' or '}' in object");
        }
        return Value::makeObject(std::move(members));
    }

    Value
    parseArray()
    {
        expect('[');
        std::vector<Value> items;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return Value::makeArray(std::move(items));
        }
        while (true) {
            skipWs();
            items.push_back(parseValue());
            skipWs();
            const char c = next();
            if (c == ']')
                break;
            if (c != ',')
                err("expected ',' or ']' in array");
        }
        return Value::makeArray(std::move(items));
    }

    unsigned
    hex4()
    {
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = next();
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= unsigned(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= unsigned(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= unsigned(c - 'A' + 10);
            else
                err("invalid \\u escape digit");
        }
        return v;
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += char(cp);
        } else if (cp < 0x800) {
            out += char(0xc0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += char(0xe0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3f));
            out += char(0x80 | (cp & 0x3f));
        } else {
            out += char(0xf0 | (cp >> 18));
            out += char(0x80 | ((cp >> 12) & 0x3f));
            out += char(0x80 | ((cp >> 6) & 0x3f));
            out += char(0x80 | (cp & 0x3f));
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            const char c = next();
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                err("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            const char e = next();
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned cp = hex4();
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // High surrogate: a low surrogate must follow.
                    expect('\\');
                    expect('u');
                    const unsigned lo = hex4();
                    if (lo < 0xdc00 || lo > 0xdfff)
                        err("unpaired UTF-16 surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) +
                         (lo - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    err("unpaired UTF-16 surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default: err("invalid escape sequence");
            }
        }
    }

    Value
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (atEnd())
            err("truncated number");
        // Integer part: one digit, or a nonzero digit followed by more.
        if (peek() == '0') {
            ++pos_;
        } else if (peek() >= '1' && peek() <= '9') {
            while (!atEnd() && text_[pos_] >= '0' && text_[pos_] <= '9')
                ++pos_;
        } else {
            err("invalid number");
        }
        if (!atEnd() && text_[pos_] == '.') {
            ++pos_;
            if (atEnd() || text_[pos_] < '0' || text_[pos_] > '9')
                err("digits required after decimal point");
            while (!atEnd() && text_[pos_] >= '0' && text_[pos_] <= '9')
                ++pos_;
        }
        if (!atEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (!atEnd() && (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (atEnd() || text_[pos_] < '0' || text_[pos_] > '9')
                err("digits required in exponent");
            while (!atEnd() && text_[pos_] >= '0' && text_[pos_] <= '9')
                ++pos_;
        }
        const std::string tok = text_.substr(start, pos_ - start);
        return Value::makeNumber(std::strtod(tok.c_str(), nullptr));
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

void
Writer::escapeChar(unsigned char c)
{
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      }
    }
}

namespace {

void
writeValue(Writer &w, const Value &v)
{
    switch (v.kind()) {
      case Value::Kind::Null:
        w.null();
        return;
      case Value::Kind::Bool:
        w.value(v.asBool());
        return;
      case Value::Kind::Number: {
        // Exact integers in the 64-bit range print without a fraction
        // so counters survive a parse/serialize round trip
        // byte-for-byte; everything else uses the shortest
        // round-tripping form.
        const double n = v.asNumber();
        if (n == std::floor(n) && !std::signbit(n) &&
            n <= 18446744073709549568.0)
            w.value(static_cast<std::uint64_t>(n));
        else if (n == std::floor(n) && n < 0.0 &&
                 n >= -9223372036854774784.0)
            w.value(static_cast<std::int64_t>(n));
        else
            w.value(n);
        return;
      }
      case Value::Kind::String:
        w.value(v.asString());
        return;
      case Value::Kind::Array:
        w.beginArray();
        for (const Value &item : v.items())
            writeValue(w, item);
        w.endArray();
        return;
      case Value::Kind::Object:
        w.beginObject();
        for (const auto &[key, member] : v.members()) {
            w.key(key);
            writeValue(w, member);
        }
        w.endObject();
        return;
    }
    DRSIM_PANIC("invalid json::Value kind ", int(v.kind()));
}

} // namespace

std::string
serialize(const Value &v)
{
    Writer w;
    writeValue(w, v);
    return w.str();
}

} // namespace json
} // namespace drsim
