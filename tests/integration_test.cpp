// Cross-module integration tests: the section 4.4 configuration recipe,
// deep heterogeneous stacks, real-thread transport, POSIX over DFS, and
// whole-system consistency (workload -> sync -> fsck).

#include <gtest/gtest.h>

#include "src/blockdev/decorators.h"
#include "src/fs/registry.h"
#include "src/layers/cfs/cfs_layer.h"
#include "src/layers/compfs/comp_layer.h"
#include "src/layers/cryptfs/crypt_layer.h"
#include "src/layers/dfs/dfs_client.h"
#include "src/layers/dfs/dfs_server.h"
#include "src/layers/mirrorfs/mirror_layer.h"
#include "src/layers/passfs/pass_layer.h"
#include "src/layers/sfs/sfs.h"
#include "src/naming/views.h"
#include "src/posix/posix_shim.h"
#include "src/support/rng.h"
#include "src/ufs/checker.h"

namespace springfs {
namespace {

using dfs::DfsClient;
using dfs::DfsServer;

// --- the section 4.4 recipe through the registry ---

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    domain_ = Domain::Create("admin");
    root_ = MemContext::Create(domain_);
    ASSERT_TRUE(EnsureWellKnownContexts(root_, sys_, domain_).ok());
    device_ = std::make_unique<MemBlockDevice>(ufs::kBlockSize, 8192);
    sfs_ = *CreateSfs(device_.get(), SfsOptions{}, &clock_);
    ASSERT_TRUE(ExportFs(root_, "sfs0", sfs_.root, sys_).ok());
  }

  Credentials sys_ = Credentials::System();
  FakeClock clock_;
  // The device is declared FIRST so it is destroyed LAST: the name space
  // (root_) holds bindings that keep the whole stack — and therefore the
  // mounted UFS — alive, and the UFS syncs to the device on unmount.
  std::unique_ptr<MemBlockDevice> device_;
  sp<Domain> domain_;
  sp<MemContext> root_;
  Sfs sfs_;
};

TEST_F(RegistryTest, WellKnownContextsExist) {
  EXPECT_TRUE(ResolveAs<Context>(root_, "fs_creators", sys_).ok());
  EXPECT_TRUE(ResolveAs<Context>(root_, "fs", sys_).ok());
  // Idempotent.
  EXPECT_TRUE(EnsureWellKnownContexts(root_, sys_, domain_).ok());
}

TEST_F(RegistryTest, RegisterAndLookupCreator) {
  auto creator = std::make_shared<LambdaFsCreator>(
      "passfs_creator", [&]() -> Result<sp<StackableFs>> {
        return sp<StackableFs>(PassLayer::Create(domain_, {}, 0, &clock_));
      });
  ASSERT_TRUE(RegisterCreator(root_, creator, sys_).ok());
  Result<sp<StackableFsCreator>> found =
      LookupCreator(root_, "passfs_creator", sys_);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->creator_name(), "passfs_creator");
  EXPECT_EQ(LookupCreator(root_, "missing_creator", sys_).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(RegistryTest, BuildStackRunsTheSection44Recipe) {
  ASSERT_TRUE(RegisterCreator(
                  root_,
                  std::make_shared<LambdaFsCreator>(
                      "compfs_creator",
                      [&]() -> Result<sp<StackableFs>> {
                        return sp<StackableFs>(CompLayer::Create(
                            domain_, CompLayerOptions{}, &clock_));
                      }),
                  sys_)
                  .ok());
  ASSERT_TRUE(RegisterCreator(
                  root_,
                  std::make_shared<LambdaFsCreator>(
                      "cryptfs_creator",
                      [&]() -> Result<sp<StackableFs>> {
                        return sp<StackableFs>(CryptLayer::Create(
                            domain_, "recipe-key", {}, &clock_));
                      }),
                  sys_)
                  .ok());

  StackSpec spec;
  spec.base_fs = "sfs0";
  spec.layers = {"compfs_creator", "cryptfs_creator"};
  spec.export_as = "secure_docs";
  Result<sp<StackableFs>> top = BuildStack(root_, spec, sys_);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ((*top)->GetFsInfo()->type,
            "cryptfs(compfs(coherency(disk)))");

  // The stack is exported into the name space and usable through it.
  Result<sp<StackableFs>> via_ns =
      ResolveAs<StackableFs>(root_, "fs/secure_docs", sys_);
  ASSERT_TRUE(via_ns.ok());
  sp<File> file = (*via_ns)->CreateFile(*Name::Parse("f"), sys_).take_value();
  Buffer data(std::string("compressed then encrypted"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  Buffer out(data.size());
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out, data);
}

TEST_F(RegistryTest, BuildStackFailsOnMissingBase) {
  StackSpec spec;
  spec.base_fs = "nope";
  EXPECT_EQ(BuildStack(root_, spec, sys_).status().code(),
            ErrorCode::kNotFound);
}

// --- deep heterogeneous stack: crypt on pass on comp on SFS ---

TEST(DeepStackTest, FourLayersRoundTripAndPersist) {
  FakeClock clock;
  MemBlockDevice device(ufs::kBlockSize, 16384);
  Credentials sys = Credentials::System();
  Sfs sfs = *CreateSfs(&device, SfsOptions{}, &clock);

  sp<CompLayer> comp =
      CompLayer::Create(Domain::Create("comp"), CompLayerOptions{}, &clock);
  ASSERT_TRUE(comp->StackOn(sfs.root).ok());
  sp<PassLayer> pass = PassLayer::Create(Domain::Create("pass"), {}, 0, &clock);
  ASSERT_TRUE(pass->StackOn(comp).ok());
  sp<CryptLayer> crypt =
      CryptLayer::Create(Domain::Create("crypt"), "deep", {}, &clock);
  ASSERT_TRUE(crypt->StackOn(pass).ok());

  EXPECT_EQ(crypt->GetFsInfo()->type,
            "cryptfs(passfs(compfs(coherency(disk))))");
  EXPECT_EQ(crypt->GetFsInfo()->stack_depth, 5u);

  sp<File> file = crypt->CreateFile(*Name::Parse("f"), sys).take_value();
  Rng rng(99);
  Buffer data = rng.CompressibleBuffer(5 * kPageSize + 333);
  ASSERT_TRUE(file->Write(0, data.span()).ok());
  ASSERT_TRUE(crypt->SyncFs().ok());

  Buffer out(data.size());
  ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
  EXPECT_EQ(out, data);

  // Ciphertext below the crypt layer; random-looking, so the compression
  // layer stored it raw.
  sp<File> below = *ResolveAs<File>(pass, "f", sys);
  Buffer raw(64);
  ASSERT_TRUE(below->Read(0, raw.mutable_span()).ok());
  EXPECT_NE(Xxh64(raw.span()), Xxh64(data.subspan(0, 64)));
}

// --- real threads: the whole stack under ThreadTransport ---

TEST(ThreadTransportIntegrationTest, SfsWorksWithRealThreadHandoff) {
  ThreadTransport transport;
  Transport* old = Domain::SetDefaultTransport(&transport);
  {
    FakeClock clock;
    MemBlockDevice device(ufs::kBlockSize, 8192);
    Credentials sys = Credentials::System();
    SfsOptions options;
    options.placement = SfsPlacement::kTwoDomains;
    Sfs sfs = *CreateSfs(&device, options, &clock);
    sp<File> file = sfs.root->CreateFile(*Name::Parse("t"), sys).take_value();
    Buffer data(std::string("threads for real"));
    ASSERT_TRUE(file->Write(0, data.span()).ok());
    Buffer out(data.size());
    ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
    EXPECT_EQ(out, data);

    // Mapped client with coherency callbacks across real threads.
    sp<Vmm> vmm = Vmm::Create(Domain::Create("client"), "vmm");
    sp<MappedRegion> region =
        vmm->Map(file, AccessRights::kReadWrite).take_value();
    Buffer patch(std::string("THREADS"));
    ASSERT_TRUE(region->Write(0, patch.span()).ok());
    ASSERT_TRUE(file->Read(0, out.mutable_span()).ok());
    EXPECT_EQ(out.ToString().substr(0, 7), "THREADS");
    ASSERT_TRUE(sfs.root->SyncFs().ok());
  }
  Domain::SetDefaultTransport(old);
}

TEST(ThreadTransportIntegrationTest, ConcurrentWritersOnOneSfs) {
  ThreadTransport transport;
  Transport* old = Domain::SetDefaultTransport(&transport);
  {
    FakeClock clock;
    MemBlockDevice device(ufs::kBlockSize, 8192);
    Credentials sys = Credentials::System();
    Sfs sfs = *CreateSfs(&device, SfsOptions{}, &clock);
    // Eight client threads hammer eight files through the same stack.
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        std::string name = "f" + std::to_string(t);
        Result<sp<File>> file = sfs.root->CreateFile(Name::Single(name), sys);
        if (!file.ok()) {
          ++failures;
          return;
        }
        Rng rng(t);
        for (int i = 0; i < 50; ++i) {
          Buffer data = rng.RandomBuffer(512);
          if (!(*file)->Write(i * 512, data.span()).ok()) {
            ++failures;
            return;
          }
          Buffer out(512);
          if (!(*file)->Read(i * 512, out.mutable_span()).ok() ||
              !(out == data)) {
            ++failures;
            return;
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    EXPECT_EQ(failures.load(), 0);
    ASSERT_TRUE(sfs.root->SyncFs().ok());
  }
  Domain::SetDefaultTransport(old);
}

// --- POSIX over a DFS mount ---

TEST(PosixOverDfsTest, UnixStyleAccessToRemoteFiles) {
  FakeClock clock;
  net::Network network(&clock, 1000);
  sp<net::Node> server_node = network.AddNode("server");
  sp<net::Node> client_node = network.AddNode("client");
  MemBlockDevice device(ufs::kBlockSize, 8192);
  Sfs sfs = *CreateSfs(&device, SfsOptions{}, &clock);
  sp<DfsServer> server =
      *DfsServer::Create(server_node, &network, "dfs", sfs.root, &clock);
  sp<DfsClient> client =
      *DfsClient::Mount(client_node, &network, "server", "dfs");

  // The POSIX shim needs a StackableFs-ish CreateFile; wrap the client
  // context ops directly.
  posix::Process proc(client);
  // Open with kCreate requires StackableFs; DfsClient is a Context+Fs, so
  // create through the client API then open through POSIX.
  ASSERT_TRUE(client->CreateFile(*Name::Parse("remote.txt"),
                                 Credentials::System()).ok());
  Result<int> fd = proc.Open("remote.txt", posix::kRdWr);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  Buffer data(std::string("posix across the network"));
  EXPECT_EQ(*proc.Write(*fd, data.span()), data.size());
  ASSERT_TRUE(proc.Lseek(*fd, 0, posix::Whence::kSet).ok());
  Buffer out(data.size());
  EXPECT_EQ(*proc.Read(*fd, out.mutable_span()), data.size());
  EXPECT_EQ(out, data);
  EXPECT_EQ(proc.Fstat(*fd)->size, data.size());

  // Visible server-side.
  Result<sp<File>> local =
      ResolveAs<File>(sfs.root, "remote.txt", Credentials::System());
  ASSERT_TRUE(local.ok());
  EXPECT_EQ((*local)->Stat()->size, data.size());
}

// --- whole-system consistency: mixed workload then fsck ---

TEST(WholeSystemTest, MixedWorkloadLeavesCleanDisk) {
  FakeClock clock;
  MemBlockDevice device(ufs::kBlockSize, 16384);
  Credentials sys = Credentials::System();
  {
    Sfs sfs = *CreateSfs(&device, SfsOptions{}, &clock);
    sp<CompLayer> comp =
        CompLayer::Create(Domain::Create("comp"), CompLayerOptions{}, &clock);
    ASSERT_TRUE(comp->StackOn(sfs.root).ok());

    Rng rng(123);
    // Mixed traffic: files via SFS, files via COMPFS, directories, mapped
    // clients, removals.
    ASSERT_TRUE(sfs.root->CreateContext(*Name::Parse("dir"), sys).ok());
    for (int i = 0; i < 10; ++i) {
      sp<File> plain = sfs.root->CreateFile(
          Name::Single("p" + std::to_string(i)), sys).take_value();
      Buffer data = rng.RandomBuffer(rng.Range(1, 3 * kPageSize));
      ASSERT_TRUE(plain->Write(0, data.span()).ok());
      sp<File> compressed = comp->CreateFile(
          Name::Single("c" + std::to_string(i)), sys).take_value();
      Buffer cdata = rng.CompressibleBuffer(rng.Range(1, 3 * kPageSize));
      ASSERT_TRUE(compressed->Write(0, cdata.span()).ok());
      ASSERT_TRUE(compressed->SyncFile().ok());
    }
    sp<Vmm> vmm = Vmm::Create(Domain::Create("n"), "vmm");
    sp<File> mapped_file = sfs.root->CreateFile(*Name::Parse("m"), sys)
                               .take_value();
    ASSERT_TRUE(mapped_file->SetLength(2 * kPageSize).ok());
    sp<MappedRegion> region =
        vmm->Map(mapped_file, AccessRights::kReadWrite).take_value();
    Buffer mapped_data = rng.RandomBuffer(kPageSize);
    ASSERT_TRUE(region->Write(0, mapped_data.span()).ok());
    ASSERT_TRUE(region->Sync().ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(sfs.root->Unbind(Name::Single("p" + std::to_string(i)),
                                   sys).ok());
      ASSERT_TRUE(comp->Unbind(Name::Single("c" + std::to_string(i)), sys)
                      .ok());
    }
    ASSERT_TRUE(comp->SyncFs().ok());
    ASSERT_TRUE(sfs.root->SyncFs().ok());
  }
  // Unmounted: the device must check clean.
  ufs::Checker checker(&device);
  Result<ufs::CheckReport> report = checker.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
}

// --- per-file interposition on top of a real stack (section 5) ---

TEST(InterpositionIntegrationTest, DenyingWatchdogBlocksWrites) {
  FakeClock clock;
  MemBlockDevice device(ufs::kBlockSize, 8192);
  Credentials sys = Credentials::System();
  Sfs sfs = *CreateSfs(&device, SfsOptions{}, &clock);
  sp<Domain> domain = Domain::Create("admin");
  sp<MemContext> root = MemContext::Create(domain);
  ASSERT_TRUE(root->Bind(Name::Single("vol"), sfs.root, sys).ok());

  // A read-only watchdog.
  class ReadOnlyFile : public File {
   public:
    explicit ReadOnlyFile(sp<File> original) : original_(std::move(original)) {}
    Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                                 AccessRights access) override {
      if (access == AccessRights::kReadWrite) {
        return ErrPermissionDenied("read-only watchdog");
      }
      return original_->Bind(caller, access);
    }
    Result<Offset> GetLength() override { return original_->GetLength(); }
    Status SetLength(Offset) override {
      return ErrPermissionDenied("read-only watchdog");
    }
    Result<size_t> Read(Offset offset, MutableByteSpan out) override {
      return original_->Read(offset, out);
    }
    Result<size_t> Write(Offset, ByteSpan) override {
      return ErrPermissionDenied("read-only watchdog");
    }
    Result<FileAttributes> Stat() override { return original_->Stat(); }
    Status SetTimes(uint64_t, uint64_t) override {
      return ErrPermissionDenied("read-only watchdog");
    }
    Status SyncFile() override { return original_->SyncFile(); }

   private:
    sp<File> original_;
  };

  sp<StackableFs> vol = *ResolveAs<StackableFs>(root, "vol", sys);
  sp<File> file = vol->CreateFile(*Name::Parse("protected"), sys).take_value();
  Buffer data(std::string("initial"));
  ASSERT_TRUE(file->Write(0, data.span()).ok());

  ASSERT_TRUE(InterposeOnContext(
                  root, "vol",
                  [&](const std::string& component,
                      sp<Object> original) -> Result<sp<Object>> {
                    if (component == "protected") {
                      sp<File> orig = narrow<File>(original);
                      return sp<Object>(std::make_shared<ReadOnlyFile>(orig));
                    }
                    return original;
                  },
                  sys, domain)
                  .ok());

  sp<File> via_ns = *ResolveAs<File>(root, "vol/protected", sys);
  Buffer out(7);
  EXPECT_EQ(*via_ns->Read(0, out.mutable_span()), 7u);
  EXPECT_EQ(out.ToString(), "initial");
  Buffer attack(std::string("mutated"));
  EXPECT_EQ(via_ns->Write(0, attack.span()).status().code(),
            ErrorCode::kPermissionDenied);
  sp<Vmm> vmm = Vmm::Create(Domain::Create("n"), "vmm");
  EXPECT_EQ(vmm->Map(via_ns, AccessRights::kReadWrite).status().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_TRUE(vmm->Map(via_ns, AccessRights::kReadOnly).ok());
}

}  // namespace
}  // namespace springfs
