// The disk layer (paper section 6.2, Figure 10, bottom box).
//
// "The base disk layer implements an on-disk UFS compatible file system. It
// does not, however, implement a coherency algorithm." It serves page-in/
// page-out traffic through UFS block operations, answers opens and stats
// from UFS's caches, and performs no coherency callbacks — stacking the
// generic coherency layer on top (src/layers/coherent) is what makes the
// resulting SFS coherent (section 6.3).
//
// What it caches: no data and no attributes of its own. It holds per-inode
// File objects, pager keys and the pager channel table, so that each file
// has one identity and one pager per cache manager. Opens and stats are
// served by UFS's inode and directory-entry caches. Reads are served from
// UFS's open transaction, then from the journal's live copies (metadata
// blocks the live log holds newer than their homes), then from the device.
//
// Ownership: the layer object is a handle that owns the table of File
// objects. The files and their pagers share the volume (the mounted UFS,
// the pager keys and the channel table) without owning the layer, so a
// file keeps working after the layer is dropped, and dropping the layer
// and every file from it unmounts the UFS.
//
// As a naming context: regular files resolve to File objects, directories
// to sub-contexts; Bind of a File implemented by this layer creates a hard
// link, Unbind removes, CreateContext is mkdir.

#ifndef SPRINGFS_LAYERS_DISKLAYER_DISK_LAYER_H_
#define SPRINGFS_LAYERS_DISKLAYER_DISK_LAYER_H_

#include <map>
#include <memory>

#include "src/fs/file.h"
#include "src/obj/domain.h"
#include "src/ufs/ufs.h"

namespace springfs {

class DiskFile;
class DiskVolume;

class DiskLayer : public StackableFs, public Servant {
 public:
  // Lifetime contract: `device` must outlive every reference to the layer,
  // including bindings of the layer (or stacks built on it) held in a name
  // space — the mounted UFS syncs to the device when the last reference
  // drops.

  // Formats `device` and mounts a fresh disk layer over it.
  static Result<sp<DiskLayer>> Format(sp<Domain> domain, BlockDevice* device,
                                      Clock* clock = &DefaultClock());
  // Mounts an existing on-disk file system.
  static Result<sp<DiskLayer>> Mount(sp<Domain> domain, BlockDevice* device,
                                     Clock* clock = &DefaultClock());

  const char* interface_name() const override { return "disk_layer"; }

  // --- Context ---
  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override;
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace = false) override;
  Status Unbind(const Name& name, const Credentials& creds) override;
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override;
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override;

  // --- StackableFs ---
  Status StackOn(sp<StackableFs> underlying) override;
  Result<sp<File>> CreateFile(const Name& name,
                              const Credentials& creds) override;

  // --- Fs ---
  Result<FsInfo> GetFsInfo() override;
  Status SyncFs() override;

 private:
  friend class DiskDirContext;

  DiskLayer(sp<Domain> domain, std::unique_ptr<ufs::Ufs> fs);

  // Context operations relative to an arbitrary directory inode; the root
  // Context methods and DiskDirContext both delegate here.
  Result<sp<Object>> ResolveFrom(ufs::InodeNum start, const Name& name,
                                 const Credentials& creds);
  Status BindFrom(ufs::InodeNum start, const Name& name, sp<Object> object,
                  const Credentials& creds, bool replace);
  Status UnbindFrom(ufs::InodeNum start, const Name& name,
                    const Credentials& creds);
  Result<std::vector<BindingInfo>> ListFrom(ufs::InodeNum dir,
                                            const Credentials& creds);
  Result<sp<Context>> CreateContextFrom(ufs::InodeNum start, const Name& name,
                                        const Credentials& creds);

  // Resolution helpers (no domain wrapping; callers wrap). The two that
  // take an inode number want the volume's mutex held.
  Result<ufs::InodeNum> WalkToDir(ufs::InodeNum start, const Name& dirname);
  Result<sp<Object>> ObjectForInode(ufs::InodeNum ino);
  // The one file object of `ino`, so equivalent lookups return it.
  sp<File> FileForInode(ufs::InodeNum ino);

  // With the volume's mutex held: if `ino` was freed, fences its file and
  // drops its pager key and channels.
  void FenceIfFreed(ufs::InodeNum ino);

  const sp<DiskVolume> volume_;
  ufs::Ufs* const ufs_;  // the volume's

  // Guarded by the volume's mutex, which is also held across every UFS
  // call that frees or allocates an inode, with the freed file's
  // FenceIfFreed, and from a lookup or create to the file object it
  // yields: a number passes to a new file only once the file that had it
  // is fenced, and never under the old file's name.
  std::map<ufs::InodeNum, sp<DiskFile>> open_files_;
};

}  // namespace springfs

#endif  // SPRINGFS_LAYERS_DISKLAYER_DISK_LAYER_H_
