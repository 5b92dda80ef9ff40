// Small string utilities shared across refscan modules.

#ifndef REFSCAN_SUPPORT_STRINGS_H_
#define REFSCAN_SUPPORT_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace refscan {

// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string_view> Split(std::string_view text, char sep);

// Splits `text` on any whitespace run, dropping empty fields.
std::vector<std::string_view> SplitWhitespace(std::string_view text);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

// ASCII lower-casing (identifiers and commit messages only, no locale).
std::string ToLower(std::string_view text);

// True if `text` contains `word` delimited by non-identifier characters,
// e.g. ContainsWord("of_node_get(np)", "get") is true via the '_' rule below.
// Identifier tokens are split on '_' as well, matching how the paper treats
// API-name keywords ("get" matches "of_node_get").
bool ContainsIdentifierWord(std::string_view text, std::string_view word);

// Tokenizes into identifier words: letters/digits runs, split on '_' and
// non-alphanumerics, lower-cased. "of_node_get(np)" -> {"of","node","get","np"}.
std::vector<std::string> IdentifierWords(std::string_view text);

// printf-style formatting into a std::string.
[[gnu::format(printf, 1, 2)]] std::string StrFormat(const char* fmt, ...);

// Appends `text` to `out` as a quoted JSON string. Quote, backslash, \n and
// \t get their short escapes, every other control byte a \u00XX escape.
void AppendJsonString(std::string& out, std::string_view text);

// True if `name` ends with `suffix` at an identifier-part boundary, e.g.
// EndsWithWord("usb_serial_put", "put") == true,
// EndsWithWord("output", "put") == false.
bool EndsWithWord(std::string_view name, std::string_view suffix);

// True if `name` starts with `prefix` at an identifier-part boundary.
bool StartsWithWord(std::string_view name, std::string_view prefix);

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_STRINGS_H_
