#include "src/util/flags.h"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace litereconfig {

namespace {

[[noreturn]] void RejectValue(const std::string& name, const std::string& value,
                              const std::string& problem) {
  std::cerr << "error: --" << name << ": '" << value << "' is " << problem
            << "\n";
  std::exit(2);
}

// strtod/strtol skip leading whitespace and accept a numeric prefix; a flag
// value must be the number and nothing else.
bool WholeNumber(const std::string& value, const char* end) {
  return !value.empty() &&
         std::isspace(static_cast<unsigned char>(value[0])) == 0 &&
         end == value.c_str() + value.size();
}

}  // namespace

FlagSet::FlagSet(std::string description) : description_(std::move(description)) {}

void FlagSet::Define(const std::string& name, const std::string& default_value,
                     const std::string& help) {
  assert(flags_.find(name) == flags_.end());
  flags_[name] = Flag{default_value, default_value, help, false};
  order_.push_back(name);
}

bool FlagSet::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      error_ = "unknown flag --" + name;
      return false;
    }
    if (!has_value) {
      // Boolean-style flags may omit the value; otherwise consume the next arg.
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        value = argv[++i];
      } else if (it->second.default_value == "false" ||
                 it->second.default_value == "true") {
        value = "true";
      } else {
        error_ = "flag --" + name + " needs a value";
        return false;
      }
    }
    it->second.value = value;
    it->second.set = true;
  }
  return true;
}

std::string FlagSet::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  assert(it != flags_.end());
  return it->second.value;
}

double FlagSet::GetDouble(const std::string& name) const {
  std::string value = GetString(name);
  char* end = nullptr;
  double parsed = std::strtod(value.c_str(), &end);
  if (!WholeNumber(value, end)) {
    RejectValue(name, value, "not a number");
  }
  if (!std::isfinite(parsed)) {
    RejectValue(name, value, "not a finite number");
  }
  return parsed;
}

int FlagSet::GetInt(const std::string& name) const {
  std::string value = GetString(name);
  char* end = nullptr;
  errno = 0;
  long parsed = std::strtol(value.c_str(), &end, 10);
  if (!WholeNumber(value, end)) {
    RejectValue(name, value, "not an integer");
  }
  if (errno == ERANGE || parsed < INT_MIN || parsed > INT_MAX) {
    RejectValue(name, value, "out of int range");
  }
  return static_cast<int>(parsed);
}

int FlagSet::GetCount(const std::string& name) const {
  int parsed = GetInt(name);
  if (parsed < 0) {
    RejectValue(name, GetString(name), "negative");
  }
  return parsed;
}

double FlagSet::GetPositive(const std::string& name) const {
  double parsed = GetDouble(name);
  if (!(parsed > 0.0)) {
    RejectValue(name, GetString(name), "not positive");
  }
  return parsed;
}

double FlagSet::GetDoubleIn(const std::string& name, double lo, double hi) const {
  double parsed = GetDouble(name);
  if (parsed < lo || parsed > hi) {
    std::ostringstream range;
    range << "outside [" << lo << ", " << hi << "]";
    RejectValue(name, GetString(name), range.str());
  }
  return parsed;
}

std::string FlagSet::GetChoice(const std::string& name,
                               std::initializer_list<std::string_view> choices) const {
  std::string value = GetString(name);
  std::string allowed;
  for (std::string_view choice : choices) {
    if (value == choice) {
      return value;
    }
    allowed += allowed.empty() ? "" : " | ";
    allowed += choice;
  }
  RejectValue(name, value, "not one of " + allowed);
}

bool FlagSet::GetBool(const std::string& name) const {
  std::string v = GetString(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

bool FlagSet::IsSet(const std::string& name) const {
  auto it = flags_.find(name);
  return it != flags_.end() && it->second.set;
}

void FlagSet::PrintHelp(std::ostream& os) const {
  os << description_ << "\n\nFlags:\n";
  for (const std::string& name : order_) {
    const Flag& flag = flags_.at(name);
    os << "  --" << name << " (default: " << flag.default_value << ")\n      "
       << flag.help << "\n";
  }
  if (!error_.empty()) {
    os << "\nerror: " << error_ << "\n";
  }
}

}  // namespace litereconfig
