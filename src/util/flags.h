#ifndef LSWC_UTIL_FLAGS_H_
#define LSWC_UTIL_FLAGS_H_

// One table of the `--name=VALUE` flags a binary accepts. Each entry
// names the flag, a value placeholder, one line of help and the field
// the value is written to; the table parses the command line into those
// fields and prints the usage from the same entries, so a flag is
// declared once. A group of flags that several binaries share (the
// telemetry flags, the dataset flags, ...) is one function that adds
// its entries, and any checks across them, to the caller's table.
//
// Every value is checked as it is written: an integer must fit the type
// of its field and the entry's bounds, a double must be finite, a string
// must be non-empty, a choice must be one of its choices. A bad value
// prints "<flag>: <reason>" and the usage to stderr and exits 2; so do
// an unknown flag and a failed check. A repeated flag overwrites its
// field: the last one wins.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace lswc {

/// The value parsers behind the entries, for custom entries that take
/// several values. Each writes `*out` and returns "", or returns the
/// reason the text is invalid and leaves `*out` alone.
std::string ParseFlagUint(std::string_view text, uint64_t* out, uint64_t min,
                          uint64_t max);
/// A finite double that is at least `min` (above it when `exclusive`).
std::string ParseFlagDouble(
    std::string_view text, double* out,
    double min = -std::numeric_limits<double>::infinity(),
    bool exclusive = false);

/// An integer within [min, max] and within the range of T.
template <std::integral T>
std::string ParseFlagInt(std::string_view text, T* out, uint64_t min = 0,
                         uint64_t max = std::numeric_limits<T>::max()) {
  uint64_t value = 0;
  std::string error = ParseFlagUint(
      text, &value, min,
      std::min<uint64_t>(max, static_cast<uint64_t>(
                                  std::numeric_limits<T>::max())));
  if (error.empty()) *out = static_cast<T>(value);
  return error;
}

class FlagTable {
 public:
  /// Writes one value into its field, or returns why it is invalid.
  using Setter = std::function<std::string(std::string_view value)>;
  /// A check across flags, run once every flag is parsed: returns why
  /// the line is invalid, or "".
  using Check = std::function<std::string()>;

  /// `synopsis` follows "usage: <argv0> " in the usage text.
  explicit FlagTable(std::string synopsis);

  /// --name=N into an integer field, bounded by [min, max] and T.
  template <std::integral T>
  void Int(std::string_view name, std::string_view placeholder,
           std::string help, T* field, uint64_t min = 0,
           uint64_t max = std::numeric_limits<T>::max()) {
    Custom(name, placeholder, std::move(help),
           [field, min, max](std::string_view value) {
             return ParseFlagInt(value, field, min, max);
           });
  }
  /// --name=X into a double field: finite, at least `min` (above it
  /// when `exclusive`).
  void Double(std::string_view name, std::string_view placeholder,
              std::string help, double* field,
              double min = -std::numeric_limits<double>::infinity(),
              bool exclusive = false);
  /// --name=S into a string field; the value must be non-empty.
  void String(std::string_view name, std::string_view placeholder,
              std::string help, std::string* field);
  /// --name=S where S is one of `choices` (the placeholder lists them).
  void Choice(std::string_view name, std::vector<std::string> choices,
              std::string help, std::string* field);
  /// Bare --name, which sets the field to true.
  void Switch(std::string_view name, std::string help, bool* field);
  /// --name=VALUE through a setter of the caller's own.
  void Custom(std::string_view name, std::string_view placeholder,
              std::string help, Setter setter);

  /// Adds a check across flags; checks run in the order added.
  void AddCheck(Check check);

  /// True once Parse has seen `name` on the line.
  bool given(std::string_view name) const;

  /// Parses `args` (the command line without argv[0]) into the fields,
  /// then runs the checks. Arguments that do not start with '-' are
  /// appended to `positional`, or refused when it is null. Errors are
  /// InvalidArgument("<flag>: <reason>").
  Status Parse(const std::vector<std::string_view>& args,
               std::vector<std::string>* positional = nullptr);

  /// Parse(argv[1..argc)), except that an error goes through Fail.
  void ParseOrExit(int argc, char** argv,
                   std::vector<std::string>* positional = nullptr);

  /// "usage: <argv0> <synopsis>" and one line per entry.
  std::string Usage(std::string_view argv0) const;

  /// Prints `reason` and the usage to stderr and exits 2.
  [[noreturn]] void Fail(std::string_view reason) const;

 private:
  struct Entry {
    std::string name;
    std::string placeholder;  // Empty for a switch.
    std::string help;
    Setter setter;
    bool given = false;
  };

  std::string synopsis_;
  std::string argv0_;
  std::vector<Entry> entries_;
  std::vector<Check> checks_;
};

}  // namespace lswc

#endif  // LSWC_UTIL_FLAGS_H_
