#include "common/kv.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace dscalar {
namespace common {
namespace kv {

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

namespace {

/** True when @p v would not survive a trim()+literal round trip. */
bool
needsQuoting(const std::string &v)
{
    if (v.empty())
        return false;
    if (v != trim(v))
        return true;
    if (v.front() == '"' || v.front() == '#')
        return true;
    for (char c : v)
        if (c == '\n' || c == '\r')
            return true;
    return false;
}

std::string
quoteValue(const std::string &v)
{
    std::string out;
    out.reserve(v.size() + 2);
    out += '"';
    for (char c : v) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    out += '"';
    return out;
}

/** Decode a trimmed `"..."` token in place.
 *  @return false when the quoting is malformed (no closing quote,
 *  trailing junk, or a dangling escape). */
bool
unquoteValue(std::string &value)
{
    std::string out;
    out.reserve(value.size());
    std::size_t i = 1; // past the opening quote
    while (i < value.size()) {
        char c = value[i++];
        if (c == '"') {
            if (i != value.size())
                return false; // junk after the closing quote
            value = out;
            return true;
        }
        if (c == '\\') {
            if (i == value.size())
                return false;
            char e = value[i++];
            switch (e) {
              case '\\': out += '\\'; break;
              case '"': out += '"'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              default: return false;
            }
        } else {
            out += c;
        }
    }
    return false; // never saw the closing quote
}

} // namespace

bool
splitLine(const std::string &line, std::string &key,
          std::string &value)
{
    std::size_t eq = line.find('=');
    if (eq == std::string::npos)
        return false;
    key = trim(line.substr(0, eq));
    value = trim(line.substr(eq + 1));
    if (!value.empty() && value.front() == '"')
        return unquoteValue(value);
    return true;
}

bool
parseU64(const std::string &value, std::uint64_t &out)
{
    if (value.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : value) {
        if (c < '0' || c > '9')
            return false;
        auto digit = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return false; // overflow
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

bool
parseF64(const std::string &value, double &out)
{
    if (value.empty())
        return false;
    const char *begin = value.c_str();
    char *end = nullptr;
    double v = std::strtod(begin, &end);
    if (end != begin + value.size())
        return false;
    out = v;
    return true;
}

std::string
formatF64(double v)
{
    char buf[64];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        double back = 0.0;
        if (parseF64(buf, back) && back == v)
            return buf;
    }
    return buf; // %.17g is always exact for finite doubles
}

void
emit(std::ostream &os, const char *key, std::uint64_t value)
{
    os << key << " = " << value << "\n";
}

void
emit(std::ostream &os, const char *key, const std::string &value)
{
    os << key << " = "
       << (needsQuoting(value) ? quoteValue(value) : value) << "\n";
}

void
emit(std::ostream &os, const char *key, double value)
{
    os << key << " = " << formatF64(value) << "\n";
}

int
nameIndex(std::span<const char *const> names, const std::string &name)
{
    auto it = std::find(names.begin(), names.end(), name);
    return it == names.end() ? -1 : static_cast<int>(it - names.begin());
}

namespace {

/** What a valid value is, for "bad value" errors. */
std::string
expected(const Range &r, Kind kind, std::uint64_t max)
{
    if (kind == Kind::Prob)
        return "a probability in [0,1]";
    if (!r.noun || kind == Kind::Bool)
        return "an unsigned integer";
    std::string noun = r.noun;
    if (kind == Kind::String)
        return "a " + noun;
    if (r.min == 1 && max == (kind == Kind::U32 ? UINT32_MAX : UINT64_MAX))
        return "a positive " + noun;
    return "a " + noun + " in " + std::to_string(r.min) + ".." +
           std::to_string(max);
}

/** The value of @p r as formatted text. */
std::string
text(const Ref &r)
{
    switch (r.kind) {
      case Kind::String: return *static_cast<const std::string *>(r.p);
      case Kind::Prob: return formatF64(*static_cast<const double *>(r.p));
      case Kind::Enum: {
        auto i = *static_cast<const std::uint8_t *>(r.p);
        return i < r.names.size() ? r.names[i] : "?";
      }
      case Kind::U32:
        return std::to_string(*static_cast<const unsigned *>(r.p));
      case Kind::U64:
        return std::to_string(*static_cast<const std::uint64_t *>(r.p));
      default: return *static_cast<const bool *>(r.p) ? "1" : "0";
    }
}

} // namespace

const Key *
applyKey(std::span<const Key> keys, void *obj, const std::string &key,
         const std::string &value, std::string &error)
{
    auto k = std::find_if(keys.begin(), keys.end(),
                          [&](const Key &row) { return key == row.name; });
    if (k == keys.end()) {
        error = "unknown key '" + key + "'";
        return nullptr;
    }
    Ref r = k->field(obj);
    const std::uint64_t max = std::min<std::uint64_t>(
        k->range.max, r.kind == Kind::U32 ? UINT32_MAX : UINT64_MAX);
    std::uint64_t v = 0;
    double p = 0.0;
    bool ok = true;
    switch (r.kind) {
      case Kind::Enum: {
        int i = nameIndex(r.names, value);
        if (i < 0) {
            error = "unknown " + key + " '" + value + "'";
            return nullptr;
        }
        v = static_cast<std::uint64_t>(i);
        break;
      }
      case Kind::String: ok = value.size() >= k->range.min; break;
      case Kind::Prob: ok = parseF64(value, p) && p >= 0 && p <= 1; break;
      case Kind::Bool: ok = parseU64(value, v); break;
      default: ok = parseU64(value, v) && v >= k->range.min && v <= max;
    }
    if (!ok) {
        error = "bad value '" + value + "' for '" + key + "' (expected " +
                expected(k->range, r.kind, max) + ")";
        return nullptr;
    }
    switch (r.kind) {
      case Kind::String: *static_cast<std::string *>(r.p) = value; break;
      case Kind::Enum: *static_cast<std::uint8_t *>(r.p) = v; break;
      case Kind::U32: *static_cast<unsigned *>(r.p) = v; break;
      case Kind::U64: *static_cast<std::uint64_t *>(r.p) = v; break;
      case Kind::Bool: *static_cast<bool *>(r.p) = v != 0; break;
      case Kind::Prob: *static_cast<double *>(r.p) = p; break;
    }
    if (r.mark)
        *r.mark = true;
    return &*k;
}

bool
argToKey(const std::string &arg, std::string &key, std::string &value)
{
    if (arg.rfind("--", 0) != 0)
        return false;
    std::size_t eq = arg.find('=');
    key = arg.substr(2, eq == std::string::npos ? std::string::npos
                                                : eq - 2);
    value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    std::replace(key.begin(), key.end(), '-', '_');
    return true;
}

void
printFlags(std::ostream &os, std::span<const Key> keys)
{
    for (const Key &k : keys) {
        std::string flag = k.name;
        std::replace(flag.begin(), flag.end(), '_', '-');
        flag.resize(std::max<std::size_t>(flag.size(), 20), ' ');
        os << "  --" << flag << ' ' << k.doc << '\n';
    }
}

int
parseBlock(std::istream &in, std::span<const Key> keys, void *obj,
           bool untilBlank, std::string &error)
{
    panic_if(keys.size() > 64, "a key schema holds at most 64 keys");
    std::uint64_t seen = 0; // bit i: keys[i] was applied
    int applied = 0;
    std::string line, key, value;
    for (unsigned lineno = 1; std::getline(in, line); ++lineno) {
        std::string t = trim(line);
        if (t.empty() && untilBlank && applied)
            break;
        if (t.empty() || t[0] == '#')
            continue;
        const Key *k = nullptr;
        if (!splitLine(t, key, value))
            error = "missing '=' or malformed value";
        else if ((k = applyKey(keys, obj, key, value, error)))
            seen |= std::uint64_t(1) << (k - keys.data());
        if (!k) {
            error = "line " + std::to_string(lineno) + ": " + error;
            return -1;
        }
        ++applied;
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if ((keys[i].flags & kRequired) && !(seen >> i & 1)) {
            error = std::string("missing key '") + keys[i].name + "'";
            return -1;
        }
    }
    return applied;
}

void
format(std::ostream &os, std::span<const Key> keys, const void *obj)
{
    for (const Key &k : keys) {
        Ref r = k.field(const_cast<void *>(obj));
        std::string v = text(r);
        bool zero = v.empty() || v == "0" ||
                    (!r.names.empty() && v == r.names[0]);
        if (!zero || !(k.flags & kOptional))
            emit(os, k.name, v);
    }
}

} // namespace kv
} // namespace common
} // namespace dscalar
