// net module tests: address parsing, 5-tuple hashing, HTTP and RESP codec
// round-trips (including malformed input), the HTTP head reader against the
// full parse, the direct HTTP writers against serialize(), and fabric
// delivery semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "net/fabric.hpp"
#include "net/five_tuple.hpp"
#include "net/http.hpp"
#include "net/resp.hpp"

namespace klb::net {
namespace {

using namespace util::literals;

TEST(IpAddr, ParseAndFormatRoundTrip) {
  for (const std::string s : {"0.0.0.0", "10.1.2.3", "255.255.255.255", "192.168.0.1"}) {
    const auto a = IpAddr::parse(s);
    ASSERT_TRUE(a.has_value()) << s;
    EXPECT_EQ(a->str(), s);
  }
}

TEST(IpAddr, RejectsMalformed) {
  for (const std::string s :
       {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3", "1.2.3.4 "}) {
    EXPECT_FALSE(IpAddr::parse(s).has_value()) << s;
  }
}

TEST(IpAddr, ParsesAViewIntoALargerBuffer) {
  const std::string buf = "10.0.0.1x";
  const std::string_view view(buf);
  const auto a = IpAddr::parse(view.substr(0, 8));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, (IpAddr{10, 0, 0, 1}));
  EXPECT_FALSE(IpAddr::parse(view).has_value());
  // The view stops at its own end, not at the buffer's.
  EXPECT_FALSE(IpAddr::parse(view.substr(0, 7)).has_value());  // "10.0.0."
  EXPECT_FALSE(IpAddr::parse(std::string_view("1.2.3.45", 6)).has_value());
}

TEST(IpAddr, NextIncrements) {
  const IpAddr a{10, 0, 0, 255};
  EXPECT_EQ(a.next().str(), "10.0.1.0");
  EXPECT_EQ(a.next(3).str(), "10.0.1.2");
}

TEST(FiveTuple, HashSpreadsUniformly) {
  // Distinct source ports should spread evenly over 3 buckets (ECMP-style).
  std::array<int, 3> buckets{};
  FiveTuple t;
  t.src_ip = IpAddr{10, 2, 0, 1};
  t.dst_ip = IpAddr{10, 0, 0, 1};
  t.dst_port = 80;
  const int n = 30'000;
  for (int p = 0; p < n; ++p) {
    t.src_port = static_cast<std::uint16_t>(p % 65'536);
    buckets[hash_tuple(t) % 3]++;
  }
  for (const int b : buckets) EXPECT_NEAR(b, n / 3, n / 50);
}

TEST(FiveTuple, HashIsDeterministic) {
  FiveTuple t;
  t.src_ip = IpAddr{1, 2, 3, 4};
  t.src_port = 1234;
  EXPECT_EQ(hash_tuple(t), hash_tuple(t));
}

TEST(Http, RequestRoundTrip) {
  HttpRequest req;
  req.method = "GET";
  req.target = "/work?x=1";
  req.headers["Host"] = "10.0.0.1";
  req.body = "payload";
  const auto parsed = HttpRequest::parse(req.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->target, "/work?x=1");
  EXPECT_EQ(parsed->headers.at("Host"), "10.0.0.1");
  EXPECT_EQ(parsed->headers.at("Content-Length"), "7");
  EXPECT_EQ(parsed->body, "payload");
}

TEST(Http, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 503;
  resp.reason = "Service Unavailable";
  resp.body = "overloaded";
  const auto parsed = HttpResponse::parse(resp.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 503);
  EXPECT_FALSE(parsed->ok());
  EXPECT_EQ(parsed->body, "overloaded");
}

TEST(Http, ParsesHandWrittenWire) {
  const std::string wire =
      "GET /index.html HTTP/1.1\r\nHost: example.com\r\n"
      "Content-Length: 0\r\n\r\n";
  const auto req = HttpRequest::parse(wire);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->target, "/index.html");
}

TEST(Http, RejectsMalformed) {
  EXPECT_FALSE(HttpRequest::parse("").has_value());
  EXPECT_FALSE(HttpRequest::parse("GET /\r\n\r\n").has_value());  // no version
  EXPECT_FALSE(HttpRequest::parse("GET / HTTP/2\r\n\r\n").has_value());
  EXPECT_FALSE(HttpResponse::parse("HTTP/1.1 abc OK\r\n\r\n").has_value());
  // Truncated body: Content-Length promises more than present.
  EXPECT_FALSE(
      HttpRequest::parse("GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
          .has_value());
}

// --- The head reader against HttpResponse::parse ------------------------------

// The Server value HttpResponse::parse sees ("" when absent), which is what
// read_response_head must report.
std::string parsed_server(const HttpResponse& r) {
  const auto it = r.headers.find("Server");
  return it == r.headers.end() ? "" : it->second;
}

// The reader and the full parse agree on `wire`: both reject it, or both
// accept it with the same status and Server value.
void expect_agreement(std::string_view wire) {
  const auto full = HttpResponse::parse(wire);
  const auto head = read_response_head(wire);
  ASSERT_EQ(full.has_value(), head.has_value()) << testing::PrintToString(wire);
  if (!full) return;
  EXPECT_EQ(head->status, full->status) << testing::PrintToString(wire);
  EXPECT_EQ(head->ok(), full->ok()) << testing::PrintToString(wire);
  EXPECT_EQ(head->server, parsed_server(*full)) << testing::PrintToString(wire);
}

const std::string kCanonical200 =
    "HTTP/1.1 200 OK\r\nServer: klb-dip/10.1.0.7\r\nContent-Length: 6\r\n\r\n"
    "result";

TEST(HttpHead, AgreesWithParseOnEdgeInputs) {
  struct Case {
    const char* what;
    std::string wire;
    bool accepted;
    std::string server;  // expected read_response_head server when accepted
  };
  const std::vector<Case> cases = {
      {"canonical 200", kCanonical200, true, "klb-dip/10.1.0.7"},
      {"canonical 503",
       "HTTP/1.1 503 Service Unavailable\r\nServer: klb-dip/10.1.0.7\r\n"
       "Content-Length: 10\r\n\r\noverloaded",
       true, "klb-dip/10.1.0.7"},
      {"no reason phrase", "HTTP/1.1 200\r\nContent-Length: 0\r\n\r\n", true,
       ""},
      {"HTTP/1.0", "HTTP/1.0 404 Not Found\r\n\r\n", true, ""},
      {"any 1.x minor", "HTTP/1.x 200 OK\r\n\r\n", true, ""},
      {"signed status", "HTTP/1.1 -5 Odd\r\n\r\n", true, ""},
      {"HTTP/2", "HTTP/2 200 OK\r\n\r\n", false, ""},
      {"no version", "200 OK\r\n\r\n", false, ""},
      {"version only", "HTTP/1.1\r\n\r\n", false, ""},
      {"non-numeric status", "HTTP/1.1 abc OK\r\n\r\n", false, ""},
      {"trailing garbage in status", "HTTP/1.1 200x OK\r\n\r\n", false, ""},
      {"empty status", "HTTP/1.1  200 OK\r\n\r\n", false, ""},
      {"status overflows int", "HTTP/1.1 99999999999 OK\r\n\r\n", false, ""},
      {"empty input", "", false, ""},
      {"no CRLF at all", "HTTP/1.1 200 OK", false, ""},
      {"missing blank line",
       "HTTP/1.1 200 OK\r\nServer: klb-dip/10.1.0.7\r\n", false, ""},
      {"header without a colon", "HTTP/1.1 200 OK\r\nNoColon\r\n\r\n", false,
       ""},
      {"colon only on a later line",
       "HTTP/1.1 200 OK\r\nBad\r\nServer: klb-dip/10.1.0.7\r\n\r\n", false,
       ""},
      {"non-numeric Content-Length",
       "HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\nabc", false, ""},
      {"Content-Length with trailing space",
       "HTTP/1.1 200 OK\r\nContent-Length: 3 \r\n\r\nabc", false, ""},
      {"empty Content-Length", "HTTP/1.1 200 OK\r\nContent-Length:\r\n\r\n",
       false, ""},
      {"Content-Length longer than the body",
       "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nresult", false, ""},
      {"Content-Length shorter than the body",
       "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nresult", true, ""},
      {"no Content-Length", "HTTP/1.1 200 OK\r\n\r\nanything", true, ""},
      {"duplicate Content-Length, last valid",
       "HTTP/1.1 200 OK\r\nContent-Length: 99\r\nContent-Length: 2\r\n\r\nok",
       true, ""},
      {"duplicate Content-Length, last too long",
       "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 99\r\n\r\nok",
       false, ""},
      {"lowercase content-length is just a header",
       "HTTP/1.1 200 OK\r\ncontent-length: 99\r\n\r\nok", true, ""},
      {"duplicate Server, last wins",
       "HTTP/1.1 200 OK\r\nServer: klb-dip/10.0.0.1\r\n"
       "Server: klb-dip/10.0.0.2\r\n\r\n",
       true, "klb-dip/10.0.0.2"},
      {"lowercase server is another header",
       "HTTP/1.1 200 OK\r\nserver: klb-dip/10.0.0.3\r\n\r\n", true, ""},
      {"Server with no slash", "HTTP/1.1 200 OK\r\nServer: klb-dip\r\n\r\n",
       true, "klb-dip"},
      {"Server padding", "HTTP/1.1 200 OK\r\nServer:   a/1.2.3.4 \r\n\r\n",
       true, "a/1.2.3.4 "},
      {"empty Server", "HTTP/1.1 200 OK\r\nServer:\r\n\r\n", true, ""},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    expect_agreement(c.wire);
    const auto head = read_response_head(c.wire);
    ASSERT_EQ(head.has_value(), c.accepted);
    if (head) {
      EXPECT_EQ(head->server, c.server);
    }
  }
}

TEST(HttpHead, AgreesWithParseOnEveryTruncation) {
  // Every prefix of real responses, each in a buffer of exactly its own
  // size, so a read past the view's end is a heap overflow under ASan.
  for (const std::string& full :
       {kCanonical200,
        std::string("HTTP/1.1 503 Service Unavailable\r\nServer: "
                    "klb-dip/10.1.0.7\r\nContent-Length: 10\r\n\r\n"
                    "overloaded")}) {
    for (std::size_t n = 0; n <= full.size(); ++n) {
      const auto buf = std::make_unique<char[]>(n == 0 ? 1 : n);
      std::copy_n(full.data(), n, buf.get());
      SCOPED_TRACE(n);
      expect_agreement(std::string_view(buf.get(), n));
    }
  }
}

TEST(HttpHead, ServerViewsIntoTheWire) {
  const auto head = read_response_head(kCanonical200);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->status, 200);
  EXPECT_TRUE(head->ok());
  EXPECT_GE(head->server.data(), kCanonical200.data());
  EXPECT_LE(head->server.data() + head->server.size(),
            kCanonical200.data() + kCanonical200.size());
}

// --- The direct writers against serialize() -----------------------------------

TEST(HttpWriter, GetRequestBytesMatchSerialize) {
  for (const std::string target : {"/work", "/", "/a/b?c=d&e=f"}) {
    for (const IpAddr host : {IpAddr{10, 0, 0, 1}, IpAddr{255, 255, 255, 255},
                              IpAddr{0, 0, 0, 0}}) {
      HttpRequest req;
      req.method = "GET";
      req.target = target;
      req.headers["Host"] = host.str();
      std::string out;
      write_get_request(out, target, host);
      EXPECT_EQ(out, req.serialize()) << target << " " << host.str();
    }
  }
  std::string out;
  write_get_request(out, "/work", IpAddr{10, 0, 0, 1});
  EXPECT_EQ(out,
            "GET /work HTTP/1.1\r\nHost: 10.0.0.1\r\nContent-Length: 0\r\n\r\n");
}

TEST(HttpWriter, ResponseBytesMatchSerialize) {
  const std::string server = "klb-dip/10.1.0.7";
  for (const auto& [status, body] :
       {std::pair<int, std::string>{200, "result"},
        std::pair<int, std::string>{503, "overloaded"},
        std::pair<int, std::string>{404, ""}}) {
    HttpResponse resp;
    resp.status = status;
    resp.reason = std::string(default_reason(status));
    resp.headers["Server"] = server;
    resp.body = body;
    std::string out = "prefix";  // the writer appends
    write_response(out, status, server, body);
    EXPECT_EQ(out, "prefix" + resp.serialize()) << status;
  }
  std::string out;
  write_response(out, 200, server, "result");
  EXPECT_EQ(out, kCanonical200);
}

TEST(Resp, ScalarRoundTrips) {
  for (const auto& v :
       {RespValue::simple("OK"), RespValue::error("ERR boom"),
        RespValue::integer_of(-42), RespValue::bulk("hello\r\nworld"),
        RespValue::null()}) {
    const auto decoded = resp_decode(resp_encode(v));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->value, v);
    EXPECT_EQ(decoded->consumed, resp_encode(v).size());
  }
}

TEST(Resp, NestedArrayRoundTrip) {
  const auto v = RespValue::array_of(
      {RespValue::bulk("LPUSH"), RespValue::integer_of(3),
       RespValue::array_of({RespValue::simple("a"), RespValue::null()})});
  const auto decoded = resp_decode(resp_encode(v));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->value, v);
}

TEST(Resp, CommandEncoding) {
  EXPECT_EQ(resp_encode_command({"GET", "key"}),
            "*2\r\n$3\r\nGET\r\n$3\r\nkey\r\n");
}

TEST(Resp, IncompleteInputReturnsNullopt) {
  const auto full = resp_encode_command({"SET", "k", "v"});
  for (std::size_t cut = 1; cut < full.size(); ++cut)
    EXPECT_FALSE(resp_decode(full.substr(0, cut)).has_value()) << cut;
}

TEST(Resp, MalformedRejected) {
  EXPECT_FALSE(resp_decode("x\r\n").has_value());
  EXPECT_FALSE(resp_decode("$5\r\nab\r\n").has_value());
  EXPECT_FALSE(resp_decode(":12a\r\n").has_value());
}

class Collector : public Node {
 public:
  void on_message(const Message& msg) override { received.push_back(msg); }
  std::vector<Message> received;
};

TEST(Fabric, DeliversWithLatency) {
  sim::Simulation sim(3);
  Network net(sim);
  Collector a;
  net.attach(IpAddr{10, 0, 0, 1}, &a);

  Message m;
  m.type = MsgType::kHttpRequest;
  m.payload = "hello";
  net.send(IpAddr{10, 0, 0, 1}, m);
  EXPECT_TRUE(a.received.empty());  // not synchronous
  sim.run_all();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(a.received[0].payload, "hello");
  EXPECT_GE(sim.now().us(), 150);  // at least the base latency
}

TEST(Fabric, UnboundAddressDrops) {
  sim::Simulation sim(3);
  Network net(sim);
  net.send(IpAddr{1, 1, 1, 1}, Message{});
  sim.run_all();
  EXPECT_EQ(net.messages_unreachable(), 1u);
}

TEST(Fabric, DetachStopsDelivery) {
  sim::Simulation sim(3);
  Network net(sim);
  Collector a;
  const IpAddr addr{10, 0, 0, 1};
  net.attach(addr, &a);
  net.attach(addr, nullptr);
  net.send(addr, Message{});
  sim.run_all();
  EXPECT_TRUE(a.received.empty());
}

TEST(Fabric, ManyMessagesAllArrive) {
  sim::Simulation sim(5);
  Network net(sim);
  Collector a;
  net.attach(IpAddr{10, 0, 0, 2}, &a);
  for (int i = 0; i < 1000; ++i) {
    Message m;
    m.req_id = static_cast<std::uint64_t>(i);
    net.send(IpAddr{10, 0, 0, 2}, m);
  }
  sim.run_all();
  EXPECT_EQ(a.received.size(), 1000u);
  EXPECT_EQ(net.messages_sent(), 1000u);
}

}  // namespace
}  // namespace klb::net
