// Allocation accounting for the serving hot paths (ISSUE 7 acceptance
// gate): once a connection's scratch buffers are warm, answering a
// request — text IFACE line or binary BULK frame — must not touch the
// heap. The global operator new/delete are replaced with counting
// wrappers; each test warms the path once (scratch vectors and the
// reply string grow to capacity), zeroes the counter, and asserts the
// steady-state iterations allocate nothing.
//
// This is the same code the TCP server runs: serve::Protocol's
// handle_line/handle_bulk render into a caller-provided reusable
// string exactly as net::Connection's out_ buffer does.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "netbase/ip_addr.hpp"
#include "serve/bulk.hpp"
#include "serve/protocol.hpp"
#include "serve/store.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

}  // namespace

// Counting wrappers for every replaceable allocation form: plain,
// array, aligned and nothrow. Only the allocation side is counted: frees
// of memory acquired before counting started are legal in steady state.
// Each form's delete is replaced too, and all of them release through
// one function, so every pointer a replaced new returns goes back
// through its own matching delete.
namespace {

void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* counted_or_throw(std::size_t size, std::size_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept { std::free(p); }

constexpr std::size_t kPlain = alignof(std::max_align_t);
std::size_t align_of(std::align_val_t al) { return static_cast<std::size_t>(al); }

}  // namespace

void* operator new(std::size_t n) { return counted_or_throw(n, kPlain); }
void* operator new[](std::size_t n) { return counted_or_throw(n, kPlain); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_or_throw(n, align_of(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_or_throw(n, align_of(al));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kPlain);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kPlain);
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_alloc(n, align_of(al));
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_alloc(n, align_of(al));
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace {

class AllocGuard {
 public:
  AllocGuard() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocGuard() { g_counting.store(false, std::memory_order_relaxed); }

  std::uint64_t count() const {
    return g_allocs.load(std::memory_order_relaxed);
  }
};

serve::Snapshot tiny_snapshot() {
  serve::Snapshot snap;
  snap.iterations = 1;
  snap.iteration_stats.resize(1);
  snap.router_count = 2;
  auto iface = [](const char* addr, std::uint32_t router_id,
                  netbase::Asn router_as, netbase::Asn conn_as) {
    serve::SnapshotIface rec;
    rec.addr = netbase::IPAddr::must_parse(addr);
    rec.router_id = router_id;
    rec.inf.router_as = router_as;
    rec.inf.conn_as = conn_as;
    rec.inf.seen_non_echo = true;
    return rec;
  };
  snap.interfaces.push_back(iface("10.0.0.1", 0, 65001, 65002));
  snap.interfaces.push_back(iface("10.0.1.1", 1, 65002, 65001));
  snap.as_links.emplace_back(65001, 65002);
  return snap;
}

class ServeAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto store = serve::AnnotationStore::open(tiny_snapshot());
    ASSERT_NE(store, nullptr);
    // Serve through the hot-reload handle, exactly as the app does:
    // the per-request acquire() must not cost an allocation either.
    handle_ = std::make_unique<serve::StoreHandle>(std::move(store));
    protocol_ = std::make_unique<serve::Protocol>(*handle_);
  }

  std::unique_ptr<serve::StoreHandle> handle_;
  std::unique_ptr<serve::Protocol> protocol_;
};

// The gate must see every allocation form, or an aligned or nothrow
// new on the reply path would escape it.
TEST(AllocCounter, CountsEveryReplaceableForm) {
  struct alignas(64) Wide {
    char c;
  };
  static void* volatile sink;
  AllocGuard guard;
  sink = ::operator new(8);
  ::operator delete(sink);
  sink = ::operator new[](8);
  ::operator delete[](sink);
  sink = ::operator new(8, std::nothrow);
  ::operator delete(sink, std::nothrow);
  sink = ::operator new[](8, std::nothrow);
  ::operator delete[](sink, std::nothrow);
  sink = ::operator new(sizeof(Wide), std::align_val_t{alignof(Wide)});
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(sink) % alignof(Wide), 0u);
  ::operator delete(sink, std::align_val_t{alignof(Wide)});
  sink = ::operator new[](sizeof(Wide), std::align_val_t{alignof(Wide)});
  ::operator delete[](sink, std::align_val_t{alignof(Wide)});
  sink = ::operator new(sizeof(Wide), std::align_val_t{alignof(Wide)}, std::nothrow);
  ::operator delete(sink, std::align_val_t{alignof(Wide)}, std::nothrow);
  sink = ::operator new[](sizeof(Wide), std::align_val_t{alignof(Wide)}, std::nothrow);
  ::operator delete[](sink, std::align_val_t{alignof(Wide)}, std::nothrow);
  EXPECT_EQ(guard.count(), 8u);
}

TEST_F(ServeAllocTest, TextIfacePathIsAllocationFreeWhenWarm) {
  std::string out;
  // Warm-up: the reply string and the per-thread parse scratch grow to
  // their steady-state capacity (hits, misses, multi-address lines).
  for (int i = 0; i < 4; ++i) {
    out.clear();
    protocol_->handle_line("IFACE 10.0.0.1 10.0.1.1 203.0.113.7", out);
  }

  AllocGuard guard;
  for (int i = 0; i < 1000; ++i) {
    out.clear();  // capacity is retained, exactly like Connection::out_
    protocol_->handle_line("IFACE 10.0.0.1 10.0.1.1 203.0.113.7", out);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "text IFACE steady state allocated " << guard.count() << " times";
}

TEST_F(ServeAllocTest, BulkPathIsAllocationFreeWhenWarm) {
  std::vector<netbase::IPAddr> addrs;
  for (int i = 0; i < 256; ++i)
    addrs.push_back(netbase::IPAddr::must_parse(i % 2 == 0 ? "10.0.0.1"
                                                           : "10.0.1.1"));
  addrs.push_back(netbase::IPAddr::must_parse("2001:db8::1"));  // miss
  std::string frame;
  serve::bulk::append_request(frame, addrs);

  std::string out;
  serve::Protocol::BulkScratch scratch;
  for (int i = 0; i < 4; ++i) {  // warm the scratch vectors and reply
    out.clear();
    ASSERT_TRUE(protocol_->handle_bulk(frame, out, scratch).ok);
  }

  AllocGuard guard;
  for (int i = 0; i < 1000; ++i) {
    out.clear();
    const auto r = protocol_->handle_bulk(frame, out, scratch);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.addrs, addrs.size());
  }
  EXPECT_EQ(guard.count(), 0u)
      << "bulk steady state allocated " << guard.count() << " times";
}

TEST_F(ServeAllocTest, StoreHandleAcquireIsAllocationFree) {
  // The generation pin is a shared_ptr copy out of the handle — one
  // atomic refcount bump, never a heap allocation. This is what keeps
  // the reload indirection compatible with the zero-allocation reply
  // contract the other tests enforce end to end.
  AllocGuard guard;
  for (int i = 0; i < 1000; ++i) {
    const serve::StoreHandle::StoreRef pinned = handle_->acquire();
    ASSERT_NE(pinned, nullptr);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "acquire() allocated " << guard.count() << " times";
}

TEST_F(ServeAllocTest, ErrorRepliesAreAllocationFreeWhenWarm) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.clear();
    protocol_->handle_line("IFACE notanaddress", out);
    protocol_->handle_line("NOSUCH", out);
  }

  AllocGuard guard;
  for (int i = 0; i < 1000; ++i) {
    out.clear();
    protocol_->handle_line("IFACE notanaddress", out);
    protocol_->handle_line("NOSUCH", out);
  }
  EXPECT_EQ(guard.count(), 0u);
}

}  // namespace
