// Strict numeric flag parsing shared by the fedtune CLI tools.
//
// A bare std::stoul / std::stoull / std::stod on argv aborts the whole
// process (uncaught std::invalid_argument) on a typo like `--trials 1O0`,
// and silently accepts garbage like `--timeout 5s` (partial parse) or
// `--tenant -1` (stoull wraps negatives). These helpers accept exactly the
// full token or print `error: FLAG expects ...` and exit with the usage
// code 2, like every other usage error.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>

namespace fedtune::tools {

[[noreturn]] inline void flag_value_error(const std::string& flag,
                                          const std::string& value,
                                          const char* wanted) {
  std::cerr << "error: " << flag << " expects " << wanted << ", got '"
            << value << "'\n";
  std::exit(2);
}

// Unsigned integer (size_t-ish): digits only, full token, no sign.
inline unsigned long long parse_u64_flag(const std::string& flag,
                                         const std::string& value) {
  if (value.empty() || value[0] == '-' || value[0] == '+') {
    flag_value_error(flag, value, "a non-negative integer");
  }
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    flag_value_error(flag, value, "a non-negative integer");
  }
}

inline std::size_t parse_size_flag(const std::string& flag,
                                   const std::string& value) {
  return static_cast<std::size_t>(parse_u64_flag(flag, value));
}

// TCP port: 1-5 digits, the full token, at most 65535. Whether port 0 (an
// ephemeral port) is acceptable is the caller's rule.
inline std::uint16_t parse_port_flag(const std::string& flag,
                                     const std::string& digits) {
  const bool digits_only =
      !digits.empty() && digits.size() <= 5 &&
      digits.find_first_not_of("0123456789") == std::string::npos;
  const unsigned long port = digits_only ? std::stoul(digits) : 65536;
  if (port > 65535) flag_value_error(flag, digits, "a port 0-65535");
  return static_cast<std::uint16_t>(port);
}

// "HOST:PORT" of a peer to connect to: a non-empty host and a non-zero port.
inline std::pair<std::string, std::uint16_t> parse_hostport_flag(
    const std::string& flag, const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  const std::uint16_t port =
      colon == std::string::npos
          ? 0
          : parse_port_flag(flag, spec.substr(colon + 1));
  if (colon == 0 || port == 0) {
    flag_value_error(flag, spec, "HOST:PORT with a non-zero port");
  }
  return {spec.substr(0, colon), port};
}

// Finite non-negative decimal number; the full token must parse. Every
// double-valued tool flag is a duration or a rate, so negatives, NaN, and
// infinities are all misconfigurations.
inline double parse_double_flag(const std::string& flag,
                                const std::string& value) {
  if (value.empty()) flag_value_error(flag, value, "a non-negative number");
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size() || !std::isfinite(v) || v < 0.0) {
      throw std::invalid_argument(value);
    }
    return v;
  } catch (const std::exception&) {
    flag_value_error(flag, value, "a non-negative number");
  }
}

}  // namespace fedtune::tools
