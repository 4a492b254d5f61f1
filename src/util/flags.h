// A small command-line flag parser for the tools (no external dependencies).
//
// Usage:
//   FlagSet flags("tool description");
//   flags.Define("device", "tx2", "target device: tx2 | xavier");
//   flags.Define("slo", "33.3", "latency objective in ms");
//   if (!flags.Parse(argc, argv)) { flags.PrintHelp(std::cerr); return 1; }
//   double slo = flags.GetPositive("slo");
// Flags are passed as --name=value or --name value; --help is built in.
#ifndef SRC_UTIL_FLAGS_H_
#define SRC_UTIL_FLAGS_H_

#include <initializer_list>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace litereconfig {

class FlagSet {
 public:
  explicit FlagSet(std::string description);

  // Registers a flag with its default value. Must precede Parse.
  void Define(const std::string& name, const std::string& default_value,
              const std::string& help);

  // Returns false on an unknown flag, a missing value, or --help.
  bool Parse(int argc, const char* const* argv);

  // True when --help was requested (Parse returned false without an error).
  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }

  std::string GetString(const std::string& name) const;
  // The numeric getters are strict: an empty, non-numeric or
  // trailing-garbage value, a non-finite double or an int out of range
  // prints "error: --<name>: ..." to stderr and exits with status 2.
  double GetDouble(const std::string& name) const;
  int GetInt(const std::string& name) const;
  // GetInt that also rejects negative values (counts, sizes, threads).
  int GetCount(const std::string& name) const;
  // GetDouble that also rejects zero and negative values (latency objectives).
  double GetPositive(const std::string& name) const;
  // GetDouble that also rejects values outside the closed range [lo, hi].
  double GetDoubleIn(const std::string& name, double lo, double hi) const;
  // GetString that also rejects any value other than one of `choices`.
  std::string GetChoice(const std::string& name,
                        std::initializer_list<std::string_view> choices) const;
  bool GetBool(const std::string& name) const;
  // Whether the flag was explicitly set on the command line.
  bool IsSet(const std::string& name) const;

  // Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  void PrintHelp(std::ostream& os) const;

 private:
  struct Flag {
    std::string default_value;
    std::string value;
    std::string help;
    bool set = false;
  };

  std::string description_;
  std::vector<std::string> order_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
  std::string error_;
};

}  // namespace litereconfig

#endif  // SRC_UTIL_FLAGS_H_
