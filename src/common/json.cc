#include "json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "logging.hh"

namespace drsim {
namespace json {

namespace {

/** A parsed number as an exact non-negative integer, or fatal(). */
std::uint64_t
toU64(double v)
{
    // 0x1p64 is 2^64 itself: the first double the cast cannot hold.
    if (v < 0.0 || v != std::floor(v) || v >= 0x1p64)
        fatal("JSON number ", v, " is not an unsigned integer");
    return static_cast<std::uint64_t>(v);
}

} // namespace

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
    return toU64(asNumber());
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

// -------------------------------------------------------------- Reader

namespace {

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

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

} // namespace

void
Reader::err(const std::string &what) const
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
    fatal("JSON parse error at line ", line, ", column ", col, ": ",
          what);
}

char
Reader::peekChar() const
{
    if (atEnd())
        err("unexpected end of input");
    return text_[pos_];
}

char
Reader::next()
{
    const char c = peekChar();
    ++pos_;
    return c;
}

void
Reader::expect(char c)
{
    if (next() != c)
        err(std::string("expected '") + c + "'");
}

void
Reader::skipWs()
{
    while (!atEnd()) {
        const char c = text_[pos_];
        if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
            break;
        ++pos_;
    }
}

void
Reader::literal(const char *word)
{
    for (const char *p = word; *p != '\0'; ++p)
        if (atEnd() || text_[pos_++] != *p)
            err(std::string("invalid literal (expected '") + word +
                "')");
}

Value::Kind
Reader::peek()
{
    skipWs();
    switch (peekChar()) {
      case '{': return Value::Kind::Object;
      case '[': return Value::Kind::Array;
      case '"': return Value::Kind::String;
      case 't':
      case 'f': return Value::Kind::Bool;
      case 'n': return Value::Kind::Null;
      default: return Value::Kind::Number;
    }
}

void
Reader::beginObject()
{
    skipWs();
    expect('{');
    started_.push_back(false);
}

void
Reader::beginArray()
{
    skipWs();
    expect('[');
    started_.push_back(false);
}

bool
Reader::nextElement(char close, const char *what)
{
    skipWs();
    if (started_.back()) {
        const char c = next();
        if (c == close) {
            started_.pop_back();
            return false;
        }
        if (c != ',')
            err(std::string("expected ',' or '") + close + "' in " +
                what);
        skipWs();
    } else if (peekChar() == close) {
        ++pos_;
        started_.pop_back();
        return false;
    }
    started_.back() = true;
    return true;
}

bool
Reader::nextMember(std::string &key)
{
    if (!nextElement('}', "object"))
        return false;
    if (peekChar() != '"')
        err("object key must be a string");
    key.clear();
    readStringInto(key);
    skipWs();
    expect(':');
    return true;
}

bool
Reader::nextItem()
{
    return nextElement(']', "array");
}

bool
Reader::readBool()
{
    skipWs();
    if (peekChar() == 't') {
        literal("true");
        return true;
    }
    if (peekChar() == 'f') {
        literal("false");
        return false;
    }
    err("expected true or false");
}

double
Reader::readNumber()
{
    skipWs();
    const std::size_t start = pos_;
    if (peekChar() == '-')
        ++pos_;
    if (atEnd())
        err("truncated number");
    // Integer part: one digit, or a nonzero digit followed by more.
    if (text_[pos_] == '0') {
        ++pos_;
    } else if (text_[pos_] >= '1' && text_[pos_] <= '9') {
        while (!atEnd() && isDigit(text_[pos_]))
            ++pos_;
    } else {
        err("invalid number");
    }
    if (!atEnd() && text_[pos_] == '.') {
        ++pos_;
        if (atEnd() || !isDigit(text_[pos_]))
            err("digits required after decimal point");
        while (!atEnd() && isDigit(text_[pos_]))
            ++pos_;
    }
    if (!atEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
        ++pos_;
        if (!atEnd() && (text_[pos_] == '+' || text_[pos_] == '-'))
            ++pos_;
        if (atEnd() || !isDigit(text_[pos_]))
            err("digits required in exponent");
        while (!atEnd() && isDigit(text_[pos_]))
            ++pos_;
    }
    // The token is valid JSON, so from_chars reads all of it; only an
    // overflowing or underflowing exponent needs strtod's saturation.
    const char *first = text_.data() + start;
    const char *last = text_.data() + pos_;
    double v = 0.0;
    if (std::from_chars(first, last, v).ec != std::errc())
        v = std::strtod(std::string(first, last).c_str(), nullptr);
    return v;
}

std::uint64_t
Reader::readU64()
{
    // Fast path for the common token, a plain integer: with at most
    // 15 digits it is exact as a double, so reading the digits
    // directly gives what readNumber() and toU64() would.
    skipWs();
    std::size_t p = pos_;
    std::uint64_t v = 0;
    if (p < text_.size() && text_[p] == '0') {
        ++p;
    } else {
        while (p < text_.size() && isDigit(text_[p]) && p - pos_ < 16)
            v = v * 10 + std::uint64_t(text_[p++] - '0');
    }
    const bool plain =
        p > pos_ && p - pos_ <= 15 &&
        (p == text_.size() ||
         (text_[p] != '.' && text_[p] != 'e' && text_[p] != 'E' &&
          !isDigit(text_[p])));
    if (!plain)
        return toU64(readNumber());
    pos_ = p;
    return v;
}

unsigned
Reader::hex4()
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
Reader::readStringInto(std::string &out)
{
    skipWs();
    expect('"');
    while (true) {
        const char c = next();
        if (c == '"')
            return;
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
                cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
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

std::string
Reader::readString()
{
    std::string out;
    readStringInto(out);
    return out;
}

Value
Reader::readValue()
{
    switch (peek()) {
      case Value::Kind::Object: {
        std::vector<Value::Member> members;
        std::string key;
        beginObject();
        while (nextMember(key))
            members.emplace_back(std::move(key), readValue());
        return Value::makeObject(std::move(members));
      }
      case Value::Kind::Array: {
        std::vector<Value> items;
        beginArray();
        while (nextItem())
            items.push_back(readValue());
        return Value::makeArray(std::move(items));
      }
      case Value::Kind::String: return Value::makeString(readString());
      case Value::Kind::Bool: return Value::makeBool(readBool());
      case Value::Kind::Null: literal("null"); return Value::makeNull();
      case Value::Kind::Number: break;
    }
    return Value::makeNumber(readNumber());
}

void
Reader::finish()
{
    skipWs();
    if (!atEnd())
        err("trailing content after the top-level value");
}

Value
parse(const std::string &text)
{
    Reader in(text);
    Value v = in.readValue();
    in.finish();
    return v;
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
