// Section 5 — per-file interposition overhead.
//
// Interposing at name-resolution time substitutes a watchdog object for
// selected files; unwatched files pass through. This bench measures:
//   * resolve cost: plain context vs interposed context (watched and
//     unwatched names),
//   * per-operation cost on the interposed file when the interposer
//     forwards the call vs implements it itself.
// The timings are printed, not gated. The exit code checks the shape: a
// watched name resolves to the watchdog and an unwatched one to the SFS
// file, the interposer intercepts every resolution made through it, and
// the watchdog sees, and correctly answers, every read made through it.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/layers/sfs/sfs.h"
#include "src/naming/views.h"
#include "src/support/rng.h"

using namespace springfs;
using bench::Measurement;
using bench::TimeOp;

namespace {

// Forwarding watchdog: counts calls, delegates everything.
class ForwardingFile : public File {
 public:
  explicit ForwardingFile(sp<File> original) : original_(std::move(original)) {}

  Result<sp<CacheRights>> Bind(const sp<CacheManager>& caller,
                               AccessRights access) override {
    return original_->Bind(caller, access);
  }
  Result<Offset> GetLength() override { return original_->GetLength(); }
  Status SetLength(Offset length) override {
    return original_->SetLength(length);
  }
  Result<size_t> Read(Offset offset, MutableByteSpan out) override {
    ++calls;
    return original_->Read(offset, out);
  }
  Result<size_t> Write(Offset offset, ByteSpan data) override {
    ++calls;
    return original_->Write(offset, data);
  }
  Result<FileAttributes> Stat() override {
    ++calls;
    return original_->Stat();
  }
  Status SetTimes(uint64_t a, uint64_t m) override {
    return original_->SetTimes(a, m);
  }
  Status SyncFile() override { return original_->SyncFile(); }

  uint64_t calls = 0;

 private:
  sp<File> original_;
};

}  // namespace

int main() {
  Credentials creds = Credentials::System();
  sp<Domain> domain = Domain::Create("admin");

  MemBlockDevice device(ufs::kBlockSize, 8192);
  Sfs sfs = CreateSfs(&device, SfsOptions{}).take_value();
  sp<MemContext> root = MemContext::Create(domain);
  root->Bind(Name::Single("vol"), sfs.root, creds).ToString();

  sp<StackableFs> vol = ResolveAs<StackableFs>(root, "vol", creds).take_value();
  sp<File> watched = vol->CreateFile(*Name::Parse("watched"), creds)
                         .take_value();
  sp<File> plain = vol->CreateFile(*Name::Parse("plain"), creds).take_value();
  Rng rng(3);
  Buffer page = rng.RandomBuffer(kPageSize);
  watched->Write(0, page.span()).take_value();

  // Baseline resolve cost before interposing.
  Measurement resolve_before = TimeOp(
      [&] { (void)*root->Resolve(*Name::Parse("vol/plain"), creds); }, 10000);

  // What the checks expect, counted where the work is done.
  uint64_t interposed_resolves = 0;
  uint64_t watchdog_reads = 0;
  bool reads_match = true;
  auto resolve = [&](const char* path) {
    ++interposed_resolves;
    return root->Resolve(*Name::Parse(path), creds);
  };

  auto watchdog = std::make_shared<ForwardingFile>(watched);
  sp<InterposerContext> interposer =
      InterposeOnContext(
          root, "vol",
          [&](const std::string& component,
              sp<Object> original) -> Result<sp<Object>> {
            if (component == "watched") {
              return sp<Object>(watchdog);
            }
            return original;
          },
          creds, domain)
          .take_value();

  Measurement resolve_unwatched =
      TimeOp([&] { (void)*resolve("vol/plain"); }, 10000);
  Measurement resolve_watched =
      TimeOp([&] { (void)*resolve("vol/watched"); }, 10000);
  bool watched_is_watchdog = *resolve("vol/watched") == watchdog;
  bool plain_is_sfs_file = *resolve("vol/plain") == plain;

  // Operation cost through the watchdog vs direct; both compare the page.
  sp<File> via_ns = narrow<File>(*resolve("vol/watched"));
  Buffer out(kPageSize);
  auto read_page = [&](const sp<File>& file) {
    Result<size_t> n = file->Read(0, out.mutable_span());
    reads_match = reads_match && n.ok() && *n == kPageSize && out == page;
  };
  Measurement direct_read = TimeOp([&] { read_page(watched); }, 10000);
  bool direct_reads_match = reads_match;
  Measurement watched_read = TimeOp(
      [&] {
        ++watchdog_reads;
        read_page(via_ns);
      },
      10000);

  std::printf("Section 5: per-file interposition overhead (us/op)\n");
  bench::PrintRule(64);
  std::printf("resolve, no interposer        : %9.3f\n",
              resolve_before.mean_us);
  std::printf("resolve, unwatched file       : %9.3f (%+.0f%%)\n",
              resolve_unwatched.mean_us,
              100.0 * (resolve_unwatched.mean_us / resolve_before.mean_us -
                       1.0));
  std::printf("resolve, watched file         : %9.3f (%+.0f%%)\n",
              resolve_watched.mean_us,
              100.0 * (resolve_watched.mean_us / resolve_before.mean_us -
                       1.0));
  std::printf("4KB read, direct file object  : %9.3f\n", direct_read.mean_us);
  std::printf("4KB read, through watchdog    : %9.3f (%+.0f%%)\n",
              watched_read.mean_us,
              100.0 * (watched_read.mean_us / direct_read.mean_us - 1.0));
  std::printf("interposer intercepts: %llu; watchdog calls: %llu\n",
              static_cast<unsigned long long>(interposer->intercept_count()),
              static_cast<unsigned long long>(watchdog->calls));
  bench::PrintRule(64);
  std::printf("shape: interposition costs one extra resolution hop per name "
              "and one\nforwarded call per intercepted operation — "
              "negligible next to I/O\n");

  bool ok = true;
  auto check = [&](bool holds, const char* claim) {
    if (!holds) {
      std::printf("FAIL: %s\n", claim);
      ok = false;
    }
  };
  check(watched_is_watchdog, "a watched name must resolve to the watchdog");
  check(plain_is_sfs_file, "an unwatched name must resolve to the SFS file");
  check(interposer->intercept_count() == interposed_resolves,
        "the interposer must intercept every resolution made through it");
  check(watchdog->calls == watchdog_reads,
        "the watchdog must see every read made through it");
  check(direct_reads_match, "every direct read must return the written page");
  check(reads_match, "every read through the watchdog must return the page");
  return ok ? 0 : 1;
}
