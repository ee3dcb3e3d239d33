#include "util/flags.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/string_util.h"

namespace lswc {

namespace {
/// "'<text>' <what>", built by appending: at -O3, GCC 12 raises a
/// -Wrestrict false positive on "'" + std::string(...).
std::string Quoted(std::string_view text, std::string_view what) {
  std::string out = "'";
  out += text;
  out += "' ";
  out += what;
  return out;
}
}  // namespace

std::string ParseFlagUint(std::string_view text, uint64_t* out, uint64_t min,
                          uint64_t max) {
  const std::optional<uint64_t> value = ParseUint64(text);
  if (!value) return Quoted(text, "is not a non-negative integer");
  if (*value < min || *value > max) {
    return StringPrintf("%s is out of range [%llu, %llu]",
                        std::string(text).c_str(),
                        static_cast<unsigned long long>(min),
                        static_cast<unsigned long long>(max));
  }
  *out = *value;
  return "";
}

std::string ParseFlagDouble(std::string_view text, double* out, double min,
                            bool exclusive) {
  const std::optional<double> value = ParseDouble(text);
  if (!value) return Quoted(text, "is not a number");
  if (!std::isfinite(*value)) return Quoted(text, "is not finite");
  if (exclusive ? !(*value > min) : !(*value >= min)) {
    return StringPrintf("%s must be %s %g", std::string(text).c_str(),
                        exclusive ? ">" : ">=", min);
  }
  *out = *value;
  return "";
}

FlagTable::FlagTable(std::string synopsis) : synopsis_(std::move(synopsis)) {}

void FlagTable::Double(std::string_view name, std::string_view placeholder,
                       std::string help, double* field, double min,
                       bool exclusive) {
  Custom(name, placeholder, std::move(help),
         [field, min, exclusive](std::string_view value) {
           return ParseFlagDouble(value, field, min, exclusive);
         });
}

void FlagTable::String(std::string_view name, std::string_view placeholder,
                       std::string help, std::string* field) {
  Custom(name, placeholder, std::move(help), [field](std::string_view value) {
    if (value.empty()) return std::string("needs a non-empty value");
    *field = std::string(value);
    return std::string();
  });
}

void FlagTable::Choice(std::string_view name, std::vector<std::string> choices,
                       std::string help, std::string* field) {
  const std::string placeholder = Join(choices, "|");
  Custom(name, placeholder, std::move(help),
         [field, choices = std::move(choices),
          placeholder](std::string_view value) {
           for (const std::string& choice : choices) {
             if (value == choice) {
               *field = choice;
               return std::string();
             }
           }
           return Quoted(value, "is not one of " + placeholder);
         });
}

void FlagTable::Switch(std::string_view name, std::string help, bool* field) {
  entries_.push_back(Entry{std::string(name), "", std::move(help),
                           [field](std::string_view) {
                             *field = true;
                             return std::string();
                           }});
}

void FlagTable::Custom(std::string_view name, std::string_view placeholder,
                       std::string help, Setter setter) {
  entries_.push_back(Entry{std::string(name), std::string(placeholder),
                           std::move(help), std::move(setter)});
}

void FlagTable::AddCheck(Check check) { checks_.push_back(std::move(check)); }

bool FlagTable::given(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.given;
  }
  return false;
}

Status FlagTable::Parse(const std::vector<std::string_view>& args,
                        std::vector<std::string>* positional) {
  for (const std::string_view arg : args) {
    if (arg.empty() || arg[0] != '-') {
      if (positional == nullptr) {
        return Status::InvalidArgument(std::string(arg) +
                                       ": unexpected argument");
      }
      positional->emplace_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const auto entry =
        std::find_if(entries_.begin(), entries_.end(),
                     [name](const Entry& e) { return e.name == name; });
    if (entry == entries_.end()) {
      return Status::InvalidArgument(std::string(name) + ": unknown flag");
    }
    std::string error;
    if (entry->placeholder.empty() && eq != std::string_view::npos) {
      error = "takes no value";
    } else if (!entry->placeholder.empty() && eq == std::string_view::npos) {
      error = "needs a value: " + entry->name + "=" + entry->placeholder;
    } else {
      error = entry->setter(eq == std::string_view::npos ? ""
                                                         : arg.substr(eq + 1));
    }
    if (!error.empty()) {
      return Status::InvalidArgument(entry->name + ": " + error);
    }
    entry->given = true;
  }
  for (const Check& check : checks_) {
    std::string error = check();
    if (!error.empty()) return Status::InvalidArgument(std::move(error));
  }
  return Status::OK();
}

void FlagTable::ParseOrExit(int argc, char** argv,
                            std::vector<std::string>* positional) {
  argv0_ = argv[0];
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  const Status status = Parse(args, positional);
  if (!status.ok()) Fail(status.message());
}

std::string FlagTable::Usage(std::string_view argv0) const {
  std::string out =
      "usage: " + std::string(argv0) + " " + synopsis_ + "\n";
  constexpr size_t kHelpColumn = 31;
  for (const Entry& entry : entries_) {
    std::string line = "  " + entry.name;
    if (!entry.placeholder.empty()) line += "=" + entry.placeholder;
    line += line.size() + 1 < kHelpColumn
                ? std::string(kHelpColumn - line.size(), ' ')
                : "\n" + std::string(kHelpColumn, ' ');
    out += line + entry.help + "\n";
  }
  return out;
}

void FlagTable::Fail(std::string_view reason) const {
  std::fprintf(stderr, "%.*s\n%s", static_cast<int>(reason.size()),
               reason.data(), Usage(argv0_).c_str());
  std::exit(2);
}

}  // namespace lswc
