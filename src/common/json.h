// Minimal JSON string escaping shared by the bench report writers
// (BENCH_*.json) and the observability emitters (metrics JSONL,
// Chrome-trace JSON). Header-only: the helper is needed below the
// lowest library layer (obs) and by standalone bench binaries alike.

#ifndef GRADGCL_COMMON_JSON_H_
#define GRADGCL_COMMON_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace gradgcl {

// Escapes `s` for embedding inside a double-quoted JSON string:
// backslash, double quote, and control characters (U+0000..U+001F) are
// escaped; everything else (including multi-byte UTF-8 sequences like
// the ±/ℓ glyphs in bench labels) passes through verbatim.
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Convenience: `"escaped"` with the surrounding quotes included.
inline std::string JsonString(std::string_view s) {
  // Appended, not `"\"" + ... + "\""`: that operator+ chain trips a
  // GCC 12 -Wrestrict false positive.
  const std::string escaped = JsonEscape(s);
  std::string out;
  out.reserve(escaped.size() + 2);
  out.append(1, '"').append(escaped).append(1, '"');
  return out;
}

}  // namespace gradgcl

#endif  // GRADGCL_COMMON_JSON_H_
