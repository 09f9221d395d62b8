// Tests for the file-system framework: the channel table (bind exchange,
// idempotence, fs_cache narrowing), the one bind path below (BindBelow, and
// binds of different files that do not wait for each other), the
// fs_cache/fs_pager attribute types, and the MemFile reference pager
// through the plain File interface.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <thread>

#include "src/fs/channel_table.h"
#include "src/fs/mem_file.h"
#include "src/layers/coherent/coherency_layer.h"
#include "src/layers/compfs/comp_layer.h"
#include "src/layers/disklayer/disk_layer.h"
#include "src/vmm/vmm.h"

namespace springfs {
namespace {

// A plain cache manager (not a file system): its cache object does NOT
// implement FsCacheObject, so pagers that narrow must get null.
class PlainManager : public CacheManager {
 public:
  class PlainCache : public CacheObject {
   public:
    Result<std::vector<BlockData>> FlushBack(Range) override {
      return std::vector<BlockData>{};
    }
    Result<std::vector<BlockData>> DenyWrites(Range) override {
      return std::vector<BlockData>{};
    }
    Result<std::vector<BlockData>> WriteBack(Range) override {
      return std::vector<BlockData>{};
    }
    Status DeleteRange(Range) override { return Status::Ok(); }
    Status ZeroFill(Range) override { return Status::Ok(); }
    Status Populate(Offset, AccessRights, ByteSpan) override {
      return Status::Ok();
    }
    Status DestroyCache() override { return Status::Ok(); }
  };

  class PlainRights : public CacheRights {
   public:
    explicit PlainRights(uint64_t id) : id_(id) {}
    uint64_t channel_id() const override { return id_; }

   private:
    uint64_t id_;
  };

  Result<ChannelSetup> EstablishChannel(uint64_t pager_key,
                                        sp<PagerObject> pager) override {
    ++establish_calls;
    last_pager = std::move(pager);
    auto it = setups_.find(pager_key);
    if (it == setups_.end()) {
      ChannelSetup setup{std::make_shared<PlainCache>(),
                         std::make_shared<PlainRights>(next_id_++)};
      it = setups_.emplace(pager_key, setup).first;
    }
    return it->second;
  }
  std::string cache_manager_name() const override { return "plain"; }

  int establish_calls = 0;
  sp<PagerObject> last_pager;

 private:
  uint64_t next_id_ = 100;
  std::map<uint64_t, ChannelSetup> setups_;
};

// A file-system cache manager: its cache object IS an FsCacheObject.
class FsManager : public CacheManager {
 public:
  class FsCache : public FsCacheObject {
   public:
    Result<std::vector<BlockData>> FlushBack(Range) override {
      return std::vector<BlockData>{};
    }
    Result<std::vector<BlockData>> DenyWrites(Range) override {
      return std::vector<BlockData>{};
    }
    Result<std::vector<BlockData>> WriteBack(Range) override {
      return std::vector<BlockData>{};
    }
    Status DeleteRange(Range) override { return Status::Ok(); }
    Status ZeroFill(Range) override { return Status::Ok(); }
    Status Populate(Offset, AccessRights, ByteSpan) override {
      return Status::Ok();
    }
    Status DestroyCache() override { return Status::Ok(); }
    Status InvalidateAttributes() override { return Status::Ok(); }
    Result<AttrUpdate> RecallAttributes() override { return AttrUpdate{}; }
  };

  Result<ChannelSetup> EstablishChannel(uint64_t, sp<PagerObject>) override {
    return ChannelSetup{std::make_shared<FsCache>(),
                        std::make_shared<PlainManager::PlainRights>(7)};
  }
  std::string cache_manager_name() const override { return "fs"; }
};

class DummyPager : public PagerObject {
 public:
  Result<Buffer> PageIn(Offset, Offset size, AccessRights) override {
    return Buffer(size);
  }
  Status PageOut(Offset, ByteSpan) override { return Status::Ok(); }
  Status WriteOut(Offset, ByteSpan) override { return Status::Ok(); }
  Status Sync(Offset, ByteSpan) override { return Status::Ok(); }
  void DoneWithPagerObject() override {}
};

TEST(PagerKeyTest, KeysAreUnique) {
  uint64_t a = NewPagerKey();
  uint64_t b = NewPagerKey();
  EXPECT_NE(a, b);
}

TEST(ChannelTableTest, BindEstablishesOnce) {
  PagerChannelTable table;
  auto manager = std::make_shared<PlainManager>();
  uint64_t key = NewPagerKey();
  auto make_pager = [](uint64_t) -> sp<PagerObject> {
    return std::make_shared<DummyPager>();
  };
  Result<sp<CacheRights>> r1 = table.Bind(1, key, manager, make_pager);
  ASSERT_TRUE(r1.ok());
  Result<sp<CacheRights>> r2 = table.Bind(1, key, manager, make_pager);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);  // same rights object both times
  EXPECT_EQ(manager->establish_calls, 1);
  EXPECT_EQ(table.NumChannels(), 1u);
}

TEST(ChannelTableTest, DistinctManagersGetDistinctChannels) {
  PagerChannelTable table;
  auto m1 = std::make_shared<PlainManager>();
  auto m2 = std::make_shared<PlainManager>();
  uint64_t key = NewPagerKey();
  auto make_pager = [](uint64_t) -> sp<PagerObject> {
    return std::make_shared<DummyPager>();
  };
  ASSERT_TRUE(table.Bind(1, key, m1, make_pager).ok());
  ASSERT_TRUE(table.Bind(1, key, m2, make_pager).ok());
  EXPECT_EQ(table.NumChannels(), 2u);
  EXPECT_EQ(table.ChannelsForFile(1).size(), 2u);
}

TEST(ChannelTableTest, DistinctFilesGetDistinctChannels) {
  PagerChannelTable table;
  auto manager = std::make_shared<PlainManager>();
  auto make_pager = [](uint64_t) -> sp<PagerObject> {
    return std::make_shared<DummyPager>();
  };
  ASSERT_TRUE(table.Bind(1, NewPagerKey(), manager, make_pager).ok());
  ASSERT_TRUE(table.Bind(2, NewPagerKey(), manager, make_pager).ok());
  EXPECT_EQ(table.NumChannels(), 2u);
  EXPECT_EQ(table.ChannelsForFile(1).size(), 1u);
  EXPECT_EQ(table.ChannelsForFile(2).size(), 1u);
}

TEST(ChannelTableTest, NarrowsFsCacheObjects) {
  PagerChannelTable table;
  auto plain = std::make_shared<PlainManager>();
  auto fs = std::make_shared<FsManager>();
  auto make_pager = [](uint64_t) -> sp<PagerObject> {
    return std::make_shared<DummyPager>();
  };
  ASSERT_TRUE(table.Bind(1, NewPagerKey(), plain, make_pager).ok());
  ASSERT_TRUE(table.Bind(2, NewPagerKey(), fs, make_pager).ok());
  // The pager discovers which peer is a file system via narrow.
  EXPECT_EQ(table.ChannelsForFile(1)[0].fs_cache, nullptr);
  EXPECT_NE(table.ChannelsForFile(2)[0].fs_cache, nullptr);
}

TEST(ChannelTableTest, RemoveChannelAllowsReestablish) {
  PagerChannelTable table;
  auto manager = std::make_shared<PlainManager>();
  uint64_t key = NewPagerKey();
  auto make_pager = [](uint64_t) -> sp<PagerObject> {
    return std::make_shared<DummyPager>();
  };
  ASSERT_TRUE(table.Bind(1, key, manager, make_pager).ok());
  uint64_t local_id = table.ChannelsForFile(1)[0].local_id;
  table.RemoveChannel(local_id);
  EXPECT_EQ(table.NumChannels(), 0u);
  ASSERT_TRUE(table.Bind(1, key, manager, make_pager).ok());
  EXPECT_EQ(manager->establish_calls, 2);
}

TEST(ChannelTableTest, RemoveFileDropsAllItsChannels) {
  PagerChannelTable table;
  auto m1 = std::make_shared<PlainManager>();
  auto m2 = std::make_shared<PlainManager>();
  auto make_pager = [](uint64_t) -> sp<PagerObject> {
    return std::make_shared<DummyPager>();
  };
  ASSERT_TRUE(table.Bind(1, NewPagerKey(), m1, make_pager).ok());
  ASSERT_TRUE(table.Bind(1, NewPagerKey(), m2, make_pager).ok());
  ASSERT_TRUE(table.Bind(2, NewPagerKey(), m1, make_pager).ok());
  table.RemoveFile(1);
  EXPECT_EQ(table.NumChannels(), 1u);
  EXPECT_TRUE(table.ChannelsForFile(1).empty());
}

TEST(ChannelTableTest, ChannelRemovedDuringTheExchangeFailsTheBind) {
  // An unlink or a server restart may drop a channel whose exchange is
  // still running. The bind then fails kStale and destroys the manager's
  // new cache, instead of completing a channel that is gone.
  class CountingCache : public PlainManager::PlainCache {
   public:
    Status DestroyCache() override {
      ++destroyed;
      return Status::Ok();
    }
    int destroyed = 0;
  };
  PagerChannelTable table;
  auto cache = std::make_shared<CountingCache>();
  auto manager = std::make_shared<OneChannelManager>(cache, 1, "test");
  Result<sp<CacheRights>> bound = table.Bind(
      1, NewPagerKey(), manager, [&](uint64_t) -> sp<PagerObject> {
        table.RemoveFile(1);  // as a remover on another thread would
        return std::make_shared<DummyPager>();
      });
  EXPECT_EQ(bound.status().code(), ErrorCode::kStale);
  EXPECT_EQ(cache->destroyed, 1);
  EXPECT_EQ(table.NumChannels(), 0u);
}

TEST(ChannelTableTest, BindWithNullManagerFails) {
  PagerChannelTable table;
  EXPECT_EQ(table.Bind(1, NewPagerKey(), nullptr,
                       [](uint64_t) -> sp<PagerObject> { return nullptr; })
                .status().code(),
            ErrorCode::kInvalidArgument);
}

// --- the one bind path below ---

// A memory object whose Bind succeeds without contacting the caller.
class SilentObject : public MemoryObject {
 public:
  Result<sp<CacheRights>> Bind(const sp<CacheManager>&,
                               AccessRights) override {
    return sp<CacheRights>(std::make_shared<ChannelRights>(1));
  }
  Result<Offset> GetLength() override { return Offset{0}; }
  Status SetLength(Offset) override { return Status::Ok(); }
};

TEST(BindBelowTest, ReturnsThePagerTheExchangeHandedOver) {
  FakeClock clock;
  sp<MemFile> file = MemFile::Create(Domain::Create("mem"), &clock);
  auto cache = std::make_shared<PlainManager::PlainCache>();
  Result<sp<PagerObject>> pager = BindBelow(*file, cache, 7, "test");
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  EXPECT_NE(*pager, nullptr);

  SilentObject silent;
  EXPECT_EQ(BindBelow(silent, cache, 7, "test").code(),
            ErrorCode::kInvalidArgument);
}

// Holds its callers until it opens, and tells when one arrived.
class Gate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    arrived_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  bool WaitArrived() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return arrived_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool arrived_ = false;
  bool open_ = false;
};

// Forwards to `under`; a Bind first waits at `gate` when it is non-null.
class HoldingFile : public File {
 public:
  HoldingFile(sp<File> under, Gate* gate)
      : under_(std::move(under)), gate_(gate) {}

  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights access) override {
    if (gate_ != nullptr) {
      gate_->Wait();
    }
    return under_->Bind(caller, access);
  }
  Result<Offset> GetLength() override { return under_->GetLength(); }
  Status SetLength(Offset length) override { return under_->SetLength(length); }
  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    return under_->Read(offset, out);
  }
  Result<size_t> Write(Offset offset, ByteSpan data) override {
    return under_->Write(offset, data);
  }
  Result<FileAttributes> Stat() override { return under_->Stat(); }
  Status SetTimes(uint64_t atime_ns, uint64_t mtime_ns) override {
    return under_->SetTimes(atime_ns, mtime_ns);
  }
  Status SyncFile() override { return under_->SyncFile(); }

 private:
  sp<File> under_;
  Gate* gate_;
};

// A forwarding layer whose file named `held` binds only once `gate` opens:
// a slow bind below, of one file.
class HoldingFs : public StackableFs {
 public:
  HoldingFs(sp<StackableFs> under, std::string held)
      : under_(std::move(under)), held_(std::move(held)) {}

  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override {
    ASSIGN_OR_RETURN(sp<Object> found, under_->Resolve(name, creds));
    sp<File> file = narrow<File>(found);
    return file ? sp<Object>(Wrap(name, file)) : found;
  }
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace) override {
    return under_->Bind(name, std::move(object), creds, replace);
  }
  Status Unbind(const Name& name, const Credentials& creds) override {
    return under_->Unbind(name, creds);
  }
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override {
    return under_->List(creds);
  }
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override {
    return under_->CreateContext(name, creds);
  }
  Status StackOn(sp<StackableFs>) override { return ErrNotSupported("base"); }
  Result<sp<File>> CreateFile(const Name& name,
                              const Credentials& creds) override {
    ASSIGN_OR_RETURN(sp<File> file, under_->CreateFile(name, creds));
    return Wrap(name, file);
  }
  Result<FsInfo> GetFsInfo() override { return under_->GetFsInfo(); }
  Status SyncFs() override { return under_->SyncFs(); }

  Gate gate;

 private:
  // One wrapper per name, so a layer above sees one file object per file.
  sp<File> Wrap(const Name& name, const sp<File>& file) {
    std::lock_guard<std::mutex> lock(mutex_);
    sp<File>& wrapped = wrapped_[name.ToString()];
    if (!wrapped) {
      wrapped = std::make_shared<HoldingFile>(
          file, name.ToString() == held_ ? &gate : nullptr);
    }
    return wrapped;
  }

  sp<StackableFs> under_;
  std::string held_;
  std::mutex mutex_;
  std::map<std::string, sp<File>> wrapped_;
};

// A disk layer under a HoldingFs that holds the Bind of file "a".
struct HeldBindWorld {
  FakeClock clock;
  MemBlockDevice device{ufs::kBlockSize, 2048};
  sp<DiskLayer> disk =
      *DiskLayer::Format(Domain::Create("disk"), &device, &clock);
  sp<HoldingFs> holding = std::make_shared<HoldingFs>(disk, "a");
  sp<Vmm> vmm = Vmm::Create(Domain::Create("vmm"), "vmm");
  Credentials sys = Credentials::System();

  // Maps `a` on another thread, so the layer above starts binding it below
  // and the bind is held there; then runs `read_b`, whose first access
  // binds another file below. Returns what `read_b` read, or "" when it
  // did not complete within three seconds.
  std::string ReadWhileABindIsHeld(const sp<File>& a,
                                   const std::function<std::string()>& read_b) {
    std::thread bind_a([&] { (void)vmm->Map(a, AccessRights::kReadOnly); });
    EXPECT_TRUE(holding->gate.WaitArrived());
    std::future<std::string> read = std::async(std::launch::async, read_b);
    bool done =
        read.wait_for(std::chrono::seconds(3)) == std::future_status::ready;
    holding->gate.Open();
    bind_a.join();
    std::string got = read.get();
    return done ? got : "";
  }
};

TEST(BindBelowTest, CoherencyLayerBindsAFileWhileAnotherFilesBindIsHeld) {
  HeldBindWorld world;
  sp<CoherencyLayer> layer = CoherencyLayer::Create(
      Domain::Create("coherency"), CoherencyLayerOptions{}, &world.clock);
  ASSERT_TRUE(layer->StackOn(world.holding).ok());
  // b's bytes go in below: any access to b through the layer binds it.
  sp<File> below = *world.disk->CreateFile(*Name::Parse("b"), world.sys);
  ASSERT_TRUE(below->Write(0, Buffer(std::string("bbbb")).span()).ok());
  sp<File> a = *layer->CreateFile(*Name::Parse("a"), world.sys);
  sp<File> b = *ResolveAs<File>(layer, "b", world.sys);
  auto read_b = [&]() -> std::string {
    Buffer out(4);
    Result<size_t> n = b->Read(0, out.mutable_span());
    return n.ok() ? out.ToString() : n.status().ToString();
  };
  EXPECT_EQ(world.ReadWhileABindIsHeld(a, read_b), "bbbb");
}

TEST(BindBelowTest, CompfsBindsAFileWhileAnotherFilesBindIsHeld) {
  HeldBindWorld world;
  sp<CompLayer> layer = CompLayer::Create(Domain::Create("compfs"),
                                          CompLayerOptions{}, &world.clock);
  ASSERT_TRUE(layer->StackOn(world.holding).ok());
  sp<File> a = *layer->CreateFile(*Name::Parse("a"), world.sys);
  sp<File> b = *layer->CreateFile(*Name::Parse("b"), world.sys);
  // COMPFS binds a file below only when a client binds it (Figure 6).
  ASSERT_TRUE(b->Write(0, Buffer(std::string("bbbb")).span()).ok());
  auto read_b = [&]() -> std::string {
    Result<sp<MappedRegion>> region =
        world.vmm->Map(b, AccessRights::kReadOnly);
    Buffer out(4);
    Status read = region.ok() ? (*region)->Read(0, out.mutable_span())
                              : region.status();
    return read.ok() ? out.ToString() : read.ToString();
  };
  EXPECT_EQ(world.ReadWhileABindIsHeld(a, read_b), "bbbb");
}

TEST(AttrUpdateTest, EmptyDetection) {
  AttrUpdate update;
  EXPECT_TRUE(update.empty());
  update.mtime_ns = 5;
  EXPECT_FALSE(update.empty());
}

// --- MemFile through the File interface ---

class MemFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    domain_ = Domain::Create("mem");
    file_ = MemFile::Create(domain_, &clock_);
  }

  FakeClock clock_;
  sp<Domain> domain_;
  sp<MemFile> file_;
};

TEST_F(MemFileTest, ReadWriteRoundTrip) {
  Buffer data(std::string("in memory"));
  ASSERT_TRUE(file_->Write(0, data.span()).ok());
  Buffer out(9);
  Result<size_t> n = file_->Read(0, out.mutable_span());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 9u);
  EXPECT_EQ(out.ToString(), "in memory");
}

TEST_F(MemFileTest, StatTracksSizeAndTimes) {
  clock_.Advance(10);
  Buffer data(std::string("xyz"));
  ASSERT_TRUE(file_->Write(0, data.span()).ok());
  Result<FileAttributes> attrs = file_->Stat();
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs->size, 3u);
  EXPECT_EQ(attrs->kind, FileKind::kRegular);
  uint64_t mtime = attrs->mtime_ns;
  clock_.Advance(10);
  ASSERT_TRUE(file_->Write(3, data.span()).ok());
  EXPECT_GT(file_->Stat()->mtime_ns, mtime);
}

TEST_F(MemFileTest, SetLengthTruncatesAndExtends) {
  Buffer data(std::string("0123456789"));
  ASSERT_TRUE(file_->Write(0, data.span()).ok());
  ASSERT_TRUE(file_->SetLength(4).ok());
  EXPECT_EQ(*file_->GetLength(), 4u);
  ASSERT_TRUE(file_->SetLength(8).ok());
  Buffer out(8);
  EXPECT_EQ(*file_->Read(0, out.mutable_span()), 8u);
  EXPECT_EQ(out.ToString().substr(0, 4), "0123");
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(out.data()[i], 0);
  }
}

TEST_F(MemFileTest, SetTimes) {
  ASSERT_TRUE(file_->SetTimes(77, 88).ok());
  Result<FileAttributes> attrs = file_->Stat();
  EXPECT_EQ(attrs->atime_ns, 77u);
  EXPECT_EQ(attrs->mtime_ns, 88u);
}

}  // namespace
}  // namespace springfs
