#include "net/address.hpp"

#include <array>
#include <charconv>

namespace klb::net {

std::optional<IpAddr> IpAddr::parse(std::string_view s) {
  std::array<std::uint32_t, 4> octets{};
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    if (pos >= s.size()) return std::nullopt;
    std::uint32_t v = 0;
    const char* begin = s.data() + pos;
    const char* end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc{} || v > 255 || ptr == begin) return std::nullopt;
    octets[static_cast<std::size_t>(i)] = v;
    pos = static_cast<std::size_t>(ptr - s.data());
    if (i < 3) {
      if (pos >= s.size() || s[pos] != '.') return std::nullopt;
      ++pos;
    }
  }
  if (pos != s.size()) return std::nullopt;
  return IpAddr(static_cast<std::uint8_t>(octets[0]),
                static_cast<std::uint8_t>(octets[1]),
                static_cast<std::uint8_t>(octets[2]),
                static_cast<std::uint8_t>(octets[3]));
}

std::string IpAddr::str() const {
  std::string out;
  append_to(out);
  return out;
}

void IpAddr::append_to(std::string& out) const {
  char buf[15];  // "255.255.255.255"
  std::size_t n = 0;
  for (int shift = 24; shift >= 0; shift -= 8) {
    const std::uint32_t octet = (addr_ >> shift) & 0xff;
    if (octet >= 100) buf[n++] = static_cast<char>('0' + octet / 100);
    if (octet >= 10) buf[n++] = static_cast<char>('0' + octet / 10 % 10);
    buf[n++] = static_cast<char>('0' + octet % 10);
    if (shift > 0) buf[n++] = '.';
  }
  out.append(buf, n);
}

}  // namespace klb::net
