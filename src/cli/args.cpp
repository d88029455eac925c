#include "cli/args.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace tbcs::cli {

namespace {

bool is_true_literal(const std::string& s) {
  return s == "true" || s == "1" || s == "yes";
}

bool is_false_literal(const std::string& s) {
  return s == "false" || s == "0" || s == "no";
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

ArgParser::ArgParser(const std::vector<std::string>& args) { parse(args); }

void ArgParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0 || a.size() <= 2) {
      errors_.push_back("unexpected argument: " + a);
      continue;
    }
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      values_[a.substr(2, eq - 2)] = Entry{a.substr(eq + 1), false};
      continue;
    }
    const std::string key = a.substr(2);
    // --key value (if the next token is not itself a flag), else boolean
    // --key.  A next token starting with a single '-' (e.g. "-0.5") is a
    // legitimate value; only "--"-prefixed tokens are flags.
    if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      values_[key] = Entry{args[i + 1], true};
      ++i;
    } else {
      values_[key] = Entry{"true", false};
    }
  }
}

std::string ArgParser::get_string(const std::string& key,
                                  const std::string& fallback) {
  queried_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second.value;
}

double ArgParser::get_double(const std::string& key, double fallback) {
  queried_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // strtod also accepts "nan", "inf" and overflows to HUGE_VAL; no model
  // quantity is meaningful at a non-finite value, so those are errors too.
  char* end = nullptr;
  const double v = std::strtod(it->second.value.c_str(), &end);
  if (end == it->second.value.c_str() || *end != '\0' || !std::isfinite(v)) {
    errors_.push_back("flag --" + key + " expects a finite number, got '" +
                      it->second.value + "'");
    return fallback;
  }
  return v;
}

int ArgParser::get_int(const std::string& key, int fallback) {
  queried_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.value.c_str(), &end, 10);
  if (end == it->second.value.c_str() || *end != '\0' || v < INT_MIN ||
      v > INT_MAX) {
    errors_.push_back("flag --" + key + " expects an integer, got '" +
                      it->second.value + "'");
    return fallback;
  }
  return static_cast<int>(v);
}

std::uint64_t ArgParser::get_uint64(const std::string& key,
                                    std::uint64_t fallback) {
  queried_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& s = it->second.value;
  // strtoull would skip blanks and negate a leading '-' modulo 2^64, so
  // only a value that starts with a digit is handed to it.
  char* end = nullptr;
  unsigned long long v = 0;
  errno = 0;
  if (!s.empty() && std::isdigit(static_cast<unsigned char>(s[0]))) {
    v = std::strtoull(s.c_str(), &end, 10);
  }
  if (end == nullptr || *end != '\0' || errno == ERANGE) {
    errors_.push_back("flag --" + key + " expects an unsigned integer, got '" +
                      s + "'");
    return fallback;
  }
  return v;
}

bool ArgParser::get_bool(const std::string& key, bool fallback) {
  queried_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  Entry& e = it->second;
  if (is_true_literal(e.value)) return true;
  if (is_false_literal(e.value)) return false;
  if (e.from_next_token) {
    // "--flag token" where token is no boolean literal: the token was a
    // positional argument, not the flag's value.  Reclassify: the flag is
    // bare boolean true, the token is reported as unexpected.
    errors_.push_back("unexpected argument: " + e.value);
    e = Entry{"true", false};
    return true;
  }
  errors_.push_back("flag --" + key + " expects a boolean, got '" + e.value +
                    "'");
  return fallback;
}

std::vector<std::string> ArgParser::unknown_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, entry] : values_) {
    if (queried_.count(key) == 0) out.push_back(key);
  }
  return out;
}

}  // namespace tbcs::cli
