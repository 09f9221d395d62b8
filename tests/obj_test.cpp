// Unit tests for the Spring object model: narrow, domains, transparent
// same/cross-domain invocation, invocation statistics, both transports.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>

#include "src/obj/domain.h"
#include "src/obj/object.h"

namespace springfs {
namespace {

class Animal : public virtual Object {
 public:
  const char* interface_name() const override { return "animal"; }
  virtual int Legs() const = 0;
};

class Dog : public Animal {
 public:
  const char* interface_name() const override { return "dog"; }
  int Legs() const override { return 4; }
  virtual const char* Bark() const { return "woof"; }
};

class Stone : public virtual Object {};

TEST(NarrowTest, SucceedsOnSubtype) {
  sp<Object> obj = std::make_shared<Dog>();
  sp<Animal> animal = narrow<Animal>(obj);
  ASSERT_NE(animal, nullptr);
  EXPECT_EQ(animal->Legs(), 4);
  sp<Dog> dog = narrow<Dog>(animal);
  ASSERT_NE(dog, nullptr);
  EXPECT_STREQ(dog->Bark(), "woof");
}

TEST(NarrowTest, FailsOnUnrelatedType) {
  sp<Object> obj = std::make_shared<Stone>();
  EXPECT_EQ(narrow<Animal>(obj), nullptr);
}

TEST(NarrowTest, NullStaysNull) {
  sp<Object> obj;
  EXPECT_EQ(narrow<Animal>(obj), nullptr);
}

// A counter servant whose methods are wrapped the way all springfs servants
// wrap theirs.
class Counter : public Servant {
 public:
  explicit Counter(sp<Domain> dom) : Servant(std::move(dom)) {}

  void Increment() {
    InDomain([this] { ++value_; });
  }
  int Get() const {
    return InDomain([this] { return value_; });
  }

 private:
  int value_ = 0;
};

TEST(DomainTest, CurrentIsNullOutsideAnyDomain) {
  EXPECT_EQ(Domain::current(), nullptr);
}

TEST(DomainTest, ScopeSetsAndRestoresCurrent) {
  sp<Domain> d = Domain::Create("d");
  {
    Domain::Scope scope(d.get());
    EXPECT_EQ(Domain::current(), d.get());
    {
      Domain::Scope inner(nullptr);
      EXPECT_EQ(Domain::current(), nullptr);
    }
    EXPECT_EQ(Domain::current(), d.get());
  }
  EXPECT_EQ(Domain::current(), nullptr);
}

TEST(DomainTest, SameDomainCallsAreInline) {
  sp<Domain> d = Domain::Create("server");
  Counter counter(d);
  Domain::Scope scope(d.get());  // the client lives in the same domain
  counter.Increment();
  counter.Increment();
  EXPECT_EQ(counter.Get(), 2);
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*d);
  EXPECT_EQ(stats["inline_calls"], 3u);
  EXPECT_EQ(stats["cross_calls"], 0u);
}

TEST(DomainTest, CrossDomainCallsAreCounted) {
  sp<Domain> server = Domain::Create("server");
  sp<Domain> client = Domain::Create("client");
  Counter counter(server);
  Domain::Scope scope(client.get());
  counter.Increment();
  EXPECT_EQ(counter.Get(), 1);
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*server);
  EXPECT_EQ(stats["inline_calls"], 0u);
  EXPECT_EQ(stats["cross_calls"], 2u);
}

TEST(DomainTest, RunReturnsValues) {
  sp<Domain> d = Domain::Create("d");
  int x = d->Run([] { return 41; }) + 1;
  EXPECT_EQ(x, 42);
  std::string s = d->Run([] { return std::string("spring"); });
  EXPECT_EQ(s, "spring");
}

TEST(DomainTest, NestedCallsWithinTargetDomainAreInline) {
  sp<Domain> d = Domain::Create("d");
  // Caller is outside: the outer call crosses, the inner one must not.
  d->Run([&] {
    EXPECT_EQ(Domain::current(), d.get());
    d->Run([] {});
  });
  std::map<std::string, uint64_t> stats = metrics::CollectFrom(*d);
  EXPECT_EQ(stats["cross_calls"], 1u);
  EXPECT_EQ(stats["inline_calls"], 1u);
}

TEST(SpinTransportTest, ChargesConfiguredCost) {
  FakeClock clock;
  SpinTransport transport(/*cross_call_ns=*/1234, &clock);
  sp<Domain> d = Domain::Create("d", &transport);
  TimeNs before = clock.Now();
  d->Run([] {});
  EXPECT_EQ(clock.Now() - before, 1234u);
  // Same-domain calls are free.
  Domain::Scope scope(d.get());
  before = clock.Now();
  d->Run([] {});
  EXPECT_EQ(clock.Now(), before);
}

TEST(ThreadTransportTest, ExecutesOnWorkerThread) {
  ThreadTransport transport;
  sp<Domain> d = Domain::Create("d", &transport);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id executed_on;
  d->Run([&] { executed_on = std::this_thread::get_id(); });
  EXPECT_NE(executed_on, caller);
}

TEST(ThreadTransportTest, NestedCallbackDoesNotDeadlock) {
  // a -> b -> a again: b's worker posts back into a while a's worker is
  // blocked; the pool must grow instead of deadlocking.
  ThreadTransport transport;
  sp<Domain> a = Domain::Create("a", &transport);
  sp<Domain> b = Domain::Create("b", &transport);
  int result = a->Run([&] {
    return b->Run([&] {
      return a->Run([] { return 7; });
    });
  });
  EXPECT_EQ(result, 7);
}

TEST(ThreadTransportTest, ConcurrentCallersAllComplete) {
  ThreadTransport transport;
  sp<Domain> d = Domain::Create("d", &transport);
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        d->Run([&] { sum.fetch_add(1); });
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(sum.load(), 800);
}

TEST(ThreadTransportTest, CurrentDomainIsTargetDuringExecution) {
  ThreadTransport transport;
  sp<Domain> d = Domain::Create("d", &transport);
  Domain* observed = nullptr;
  d->Run([&] { observed = Domain::current(); });
  EXPECT_EQ(observed, d.get());
}

TEST(DefaultTransportTest, SwapAndRestore) {
  ThreadTransport transport;
  Transport* old = Domain::SetDefaultTransport(&transport);
  EXPECT_EQ(Domain::DefaultTransport(), &transport);
  sp<Domain> d = Domain::Create("d");
  std::thread::id executed_on;
  d->Run([&] { executed_on = std::this_thread::get_id(); });
  EXPECT_NE(executed_on, std::this_thread::get_id());
  Domain::SetDefaultTransport(old);
}

}  // namespace
}  // namespace springfs
