// Context views: per-domain name spaces and name-space interposition.
//
// * OverlayContext  — resolution tries a private (front) context first and
//   falls back to a shared (back) context. "All domains have part of their
//   name space in common, but they can also customize their name space as
//   appropriate" (paper section 3.2).
// * InterposerContext — wraps an existing context and lets an Interceptor
//   selectively replace the result of individual name resolutions while
//   passing everything else through; this is the name-resolution-time
//   interposition of section 5 ("watchdogs"-style per-file extension).
// * DomainNamespace — the per-domain context object: a private MemContext
//   overlaid on the shared system root.
// * SubContext — a directory of a stacked layer, named by its path from the
//   layer's root.

#ifndef SPRINGFS_NAMING_VIEWS_H_
#define SPRINGFS_NAMING_VIEWS_H_

#include <functional>

#include "src/naming/mem_context.h"

namespace springfs {

// front-then-back union view. Binds and unbinds go to the front context
// only: a domain's customizations never mutate the shared space.
class OverlayContext : public Context, public Servant {
 public:
  static sp<OverlayContext> Create(sp<Domain> domain, sp<Context> front,
                                   sp<Context> back);

  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override;
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace = false) override;
  Status Unbind(const Name& name, const Credentials& creds) override;
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override;
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override;

 private:
  OverlayContext(sp<Domain> domain, sp<Context> front, sp<Context> back);

  sp<Context> front_;
  sp<Context> back_;
};

// Decides what an InterposerContext does with one resolved binding.
// Receives the final component name and the original object; returns the
// object to expose (possibly the original, possibly a substitute that the
// interposer implements itself).
using ResolveInterceptor =
    std::function<Result<sp<Object>>(const std::string& component,
                                     sp<Object> original)>;

class InterposerContext : public Context, public Servant {
 public:
  static sp<InterposerContext> Create(sp<Domain> domain, sp<Context> target,
                                      ResolveInterceptor interceptor);

  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override;
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace = false) override;
  Status Unbind(const Name& name, const Credentials& creds) override;
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override;
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override;

  uint64_t intercept_count() const { return intercept_count_; }

 private:
  InterposerContext(sp<Domain> domain, sp<Context> target,
                    ResolveInterceptor interceptor);

  sp<Context> target_;
  ResolveInterceptor interceptor_;
  std::atomic<uint64_t> intercept_count_{0};
};

// Swaps the context bound at `path` under `root` for an interposer wrapping
// it (the section 5 recipe: resolve the context, unbind it, bind the
// interposer in its place). Returns the interposer. Requires bind rights on
// the parent.
Result<sp<InterposerContext>> InterposeOnContext(
    const sp<Context>& root, std::string_view path,
    ResolveInterceptor interceptor, const Credentials& creds,
    const sp<Domain>& interposer_domain);

// The per-domain name space: private bindings overlaid on the shared root.
class DomainNamespace {
 public:
  DomainNamespace(sp<Domain> domain, sp<Context> shared_root);

  // The context object implementing this domain's name space.
  const sp<Context>& root() const { return root_; }
  // The private (customization) layer.
  const sp<MemContext>& private_root() const { return private_root_; }

 private:
  sp<MemContext> private_root_;
  sp<Context> root_;
};

// A directory of a stacked layer, named by its path from the layer's root.
// A stackable_fs is itself a naming_context (paper sections 3.2 and 4.4),
// so its subdirectories are just more names of its files: every operation
// here is the root's own on `prefix/name`, and List is the root's
// ListAt(prefix). A layer thus implements each name operation once, on
// full names. `Root` is a Context and a Servant with a public
// ListAt(const Name&, const Credentials&).
template <class Root>
class SubContext : public Context, public Servant {
 public:
  SubContext(sp<Root> root, Name prefix)
      : Servant(root->domain()), root_(std::move(root)),
        prefix_(std::move(prefix)) {}

  // The directory `prefix` of `root`, for root's own methods to hand out.
  static sp<Context> Of(Root* root, Name prefix) {
    return std::make_shared<SubContext>(
        std::dynamic_pointer_cast<Root>(root->shared_from_this()),
        std::move(prefix));
  }

  Result<sp<Object>> Resolve(const Name& name,
                             const Credentials& creds) override {
    return root_->Resolve(prefix_.Join(name), creds);
  }
  Status Bind(const Name& name, sp<Object> object, const Credentials& creds,
              bool replace = false) override {
    RETURN_IF_ERROR(NotEmpty(name));
    return root_->Bind(prefix_.Join(name), std::move(object), creds, replace);
  }
  Status Unbind(const Name& name, const Credentials& creds) override {
    RETURN_IF_ERROR(NotEmpty(name));
    return root_->Unbind(prefix_.Join(name), creds);
  }
  Result<std::vector<BindingInfo>> List(const Credentials& creds) override {
    return root_->ListAt(prefix_, creds);
  }
  Result<sp<Context>> CreateContext(const Name& name,
                                    const Credentials& creds) override {
    RETURN_IF_ERROR(NotEmpty(name));
    return root_->CreateContext(prefix_.Join(name), creds);
  }

 private:
  // The empty name is this directory, which is bound in its parent, not in
  // itself: a root refuses to bind, unbind or create it too.
  static Status NotEmpty(const Name& name) {
    return name.empty() ? ErrInvalidArgument("the empty name is this directory")
                        : Status::Ok();
  }

  sp<Root> root_;
  Name prefix_;
};

// Lists directory `dir` of `under`: `under` itself when `dir` is empty (one
// List call), otherwise the context `dir` resolves to there.
Result<std::vector<BindingInfo>> ListDirectory(const sp<Context>& under,
                                               const Name& dir,
                                               const Credentials& creds);

}  // namespace springfs

#endif  // SPRINGFS_NAMING_VIEWS_H_
