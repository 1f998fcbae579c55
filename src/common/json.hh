/**
 * @file
 * Minimal strict JSON support: a recursive-descent parser producing an
 * immutable value tree, and the one streaming Writer behind every JSON
 * document drsim emits (artifacts, records, envelopes, wire replies,
 * spec files, reports and the JSONL trace).
 *
 * The parser exists so the repo can *consume* its own artifacts — the
 * `drsim report` verb renders stall-breakdown tables from any results
 * file, and the exporter tests round-trip every emitted document —
 * without an external dependency.  It is deliberately strict (RFC 8259
 * grammar, no trailing commas, no comments, single top-level value,
 * nothing after it) so an escaping bug in the emitter cannot ship
 * silently: the round-trip test fails instead.
 *
 * Errors are reported via fatal() (a catchable FatalError), consistent
 * with the rest of the tree.
 */

#ifndef DRSIM_COMMON_JSON_HH
#define DRSIM_COMMON_JSON_HH

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace drsim {
namespace json {

/** One parsed JSON value (object members keep document order). */
class Value
{
  public:
    enum class Kind : std::uint8_t {
        Null, Bool, Number, String, Array, Object
    };

    using Member = std::pair<std::string, Value>;

    Value() : kind_(Kind::Null) {}

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; fatal() when the kind does not match. */
    bool asBool() const;
    double asNumber() const;
    /** asNumber() checked to be an exact non-negative integer. */
    std::uint64_t asU64() const;
    const std::string &asString() const;
    const std::vector<Value> &items() const;
    const std::vector<Member> &members() const;

    /** Object member lookup; nullptr when absent (fatal if not an
     *  object). */
    const Value *find(const std::string &key) const;
    /** Object member lookup; fatal() when absent. */
    const Value &at(const std::string &key) const;
    /** Array element; fatal() when out of range. */
    const Value &at(std::size_t index) const;

    /// @name Construction (used by the parser and tests)
    /// @{
    static Value makeNull() { return Value(); }
    static Value makeBool(bool b);
    static Value makeNumber(double v);
    static Value makeString(std::string s);
    static Value makeArray(std::vector<Value> items);
    static Value makeObject(std::vector<Member> members);
    /// @}

  private:
    Kind kind_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Value> items_;
    std::vector<Member> members_;
};

/**
 * Parse exactly one JSON document from @p text; fatal() (with a
 * line/column location) on any deviation from the RFC 8259 grammar,
 * including trailing content after the top-level value.
 */
Value parse(const std::string &text);

/**
 * Pull parser over one JSON document, the grammar behind parse(): the
 * caller walks the document in order and nothing is built that it
 * does not ask for, so a decoder that knows its shape (the point
 * record) fills its structures straight from the text.  Containers
 * open with beginObject()/beginArray() and are walked with
 * nextMember()/nextItem(), which return false after consuming the
 * closing bracket; every read consumes one value.  Errors, grammar or
 * type, are fatal() with parse()'s line/column location.  The text
 * must outlive the reader.
 */
class Reader
{
  public:
    explicit Reader(std::string_view text) : text_(text) {}

    /** Kind of the next value, judged by its first character. */
    Value::Kind peek();

    void beginObject();
    /** The next member's key into @p key, positioned at its value;
     *  false once the object has closed. */
    bool nextMember(std::string &key);
    void beginArray();
    /** True when another element follows; false once the array has
     *  closed. */
    bool nextItem();

    bool readBool();
    double readNumber();
    /** readNumber() checked as Value::asU64() checks it. */
    std::uint64_t readU64();
    std::string readString();
    /** The next value as a tree (parse() is readValue() + finish()). */
    Value readValue();
    /** Consume the next value, checking its grammar. */
    void skipValue() { (void)readValue(); }
    /** Require that only whitespace remains. */
    void finish();

  private:
    [[noreturn]] void err(const std::string &what) const;
    bool atEnd() const { return pos_ >= text_.size(); }
    char peekChar() const;
    char next();
    void expect(char c);
    void skipWs();
    void literal(const char *word);
    /** Step past the separator before a container's next element;
     *  false (and the container popped) at @p close. */
    bool nextElement(char close, const char *what);
    void readStringInto(std::string &out);
    unsigned hex4();

    std::string_view text_;
    std::size_t pos_ = 0;
    /** Per open container: has an element been read yet. */
    std::vector<bool> started_;
};

/**
 * Streaming JSON emitter: call beginObject()/key()/value()/endArray()
 * and so on in document order, then take the text with str().  The
 * Writer inserts every separator and owns the number format: integers
 * print verbatim, doubles in the shortest std::to_chars form (so 2.0
 * prints as "2").  Compact style has no whitespace.  Pretty style
 * indents two spaces per level with one `"key": value` member or
 * element per line, except that an array whose first element is a
 * scalar stays on one line (`["compress", "doduc"]`); empty
 * containers print as `{}` and `[]`.  No style ends the document with
 * a newline.
 */
class Writer
{
  public:
    enum class Style : std::uint8_t { Compact, Pretty };

    explicit Writer(Style style = Style::Compact) : style_(style) {}

    Writer &beginObject() { return open('{'); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray() { return open('['); }
    Writer &endArray() { return close(']'); }

    /** The next member's key; its value must follow. */
    Writer &
    key(std::string_view name)
    {
        separate(false);
        quoted(name);
        out_ += ':';
        if (style_ == Style::Pretty)
            out_ += ' ';
        afterKey_ = true;
        return *this;
    }

    Writer &value(std::string_view s) { return scalar(s, true); }
    /** Spelled out so a string literal does not convert to bool. */
    Writer &value(const char *s) { return scalar(s, true); }
    Writer &value(bool b) { return scalar(b ? "true" : "false", false); }
    Writer &null() { return scalar("null", false); }

    /** Integers and doubles (not float: its shortest form differs;
     *  bool takes the exact-match overload above). */
    template <class T>
        requires std::integral<T> || std::same_as<T, double>
    Writer &
    value(T v)
    {
        char buf[32];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v);
        return scalar(std::string_view(buf, std::size_t(res.ptr - buf)),
                      false);
    }

    const std::string &str() const { return out_; }

  private:
    /** An open container: no element yet, elements on the opening
     *  line (always in compact style; a scalar-led array in pretty
     *  style), or one element per line. */
    enum class Frame : std::uint8_t { Empty, Inline, Block };

    Writer &
    scalar(std::string_view text, bool quote)
    {
        separate(true);
        if (quote)
            quoted(text);
        else
            out_ += text;
        return *this;
    }

    Writer &
    open(char bracket)
    {
        separate(false);
        out_ += bracket;
        stack_.push_back(Frame::Empty);
        return *this;
    }

    Writer &
    close(char bracket)
    {
        const Frame f = stack_.back();
        stack_.pop_back();
        if (f == Frame::Block)
            newline();
        out_ += bracket;
        return *this;
    }

    /** Whatever separates the next token from the previous one; a
     *  value right after its key needs nothing, so only a key or an
     *  array element gets here, and only the latter can be a
     *  scalar. */
    void
    separate(bool isScalar)
    {
        if (afterKey_ || stack_.empty()) {
            afterKey_ = false;
            return;
        }
        Frame &f = stack_.back();
        if (f == Frame::Empty) {
            f = style_ == Style::Compact || isScalar ? Frame::Inline
                                                     : Frame::Block;
        } else {
            out_ += ',';
            if (f == Frame::Inline && style_ == Style::Pretty)
                out_ += ' ';
        }
        if (f == Frame::Block)
            newline();
    }

    void
    newline()
    {
        out_ += '\n';
        out_.append(2 * stack_.size(), ' ');
    }

    void
    quoted(std::string_view s)
    {
        out_ += '"';
        for (const char c : s) {
            const auto u = static_cast<unsigned char>(c);
            if (u < 0x20 || c == '"' || c == '\\')
                escapeChar(u);
            else
                out_ += c;
        }
        out_ += '"';
    }

    /** The two mandatory escapes, the common C escapes, and every
     *  other control character as \u00XX. */
    void escapeChar(unsigned char c);

    std::string out_;
    std::vector<Frame> stack_;
    Style style_;
    bool afterKey_ = false;
};

/**
 * Serialize @p v to a compact (no-whitespace) JSON document through
 * Writer.  Object members keep their stored order; numbers that are
 * exact integers within the 64-bit range print without a fraction,
 * so parse(serialize(v)) reproduces @p v exactly and counters survive
 * a round trip byte for byte.
 */
std::string serialize(const Value &v);

} // namespace json
} // namespace drsim

#endif // DRSIM_COMMON_JSON_HH
