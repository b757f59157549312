// IPv4 addresses and endpoints for the simulated network.
//
// The simulator identifies nodes by IPv4 address (VIPs and DIPs in the
// paper's terminology are both plain IpAddr values); Endpoint adds a port.
// Parsing/formatting round-trips exactly, which the tests rely on.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace klb::net {

class IpAddr {
 public:
  constexpr IpAddr() = default;
  constexpr explicit IpAddr(std::uint32_t be) : addr_(be) {}
  constexpr IpAddr(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                   std::uint8_t d)
      : addr_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
              (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  /// Dotted quad; the whole of `s` must be the address.
  static std::optional<IpAddr> parse(std::string_view s);

  constexpr std::uint32_t value() const { return addr_; }
  std::string str() const;
  /// Appends str()'s text to `out` without a temporary string.
  void append_to(std::string& out) const;

  constexpr bool operator==(const IpAddr& o) const { return addr_ == o.addr_; }
  constexpr bool operator!=(const IpAddr& o) const { return addr_ != o.addr_; }
  constexpr bool operator<(const IpAddr& o) const { return addr_ < o.addr_; }
  constexpr bool operator<=(const IpAddr& o) const { return addr_ <= o.addr_; }
  constexpr bool operator>(const IpAddr& o) const { return addr_ > o.addr_; }
  constexpr bool operator>=(const IpAddr& o) const { return addr_ >= o.addr_; }

  /// Successor address (used to mint DIP addresses from a base).
  constexpr IpAddr next(std::uint32_t n = 1) const { return IpAddr(addr_ + n); }

 private:
  std::uint32_t addr_ = 0;
};

struct Endpoint {
  IpAddr ip;
  std::uint16_t port = 0;

  std::string str() const { return ip.str() + ":" + std::to_string(port); }
  bool operator==(const Endpoint& o) const {
    return ip == o.ip && port == o.port;
  }
  bool operator!=(const Endpoint& o) const { return !(*this == o); }
  bool operator<(const Endpoint& o) const {
    return ip != o.ip ? ip < o.ip : port < o.port;
  }
};

}  // namespace klb::net

template <>
struct std::hash<klb::net::IpAddr> {
  std::size_t operator()(const klb::net::IpAddr& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};

template <>
struct std::hash<klb::net::Endpoint> {
  std::size_t operator()(const klb::net::Endpoint& e) const noexcept {
    return std::hash<std::uint64_t>{}(
        (std::uint64_t{e.ip.value()} << 16) | e.port);
  }
};
