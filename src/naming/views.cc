#include "src/naming/views.h"

#include <set>

namespace springfs {

// --- OverlayContext ---

sp<OverlayContext> OverlayContext::Create(sp<Domain> domain, sp<Context> front,
                                          sp<Context> back) {
  return sp<OverlayContext>(
      new OverlayContext(std::move(domain), std::move(front), std::move(back)));
}

OverlayContext::OverlayContext(sp<Domain> domain, sp<Context> front,
                               sp<Context> back)
    : Servant(std::move(domain)), front_(std::move(front)),
      back_(std::move(back)) {}

Result<sp<Object>> OverlayContext::Resolve(const Name& name,
                                           const Credentials& creds) {
  if (name.empty()) {
    return sp<Object>(std::static_pointer_cast<Object>(shared_from_this()));
  }
  return InDomain([&]() -> Result<sp<Object>> {
    Result<sp<Object>> from_front = front_->Resolve(name, creds);
    if (from_front.ok() || from_front.code() != ErrorCode::kNotFound) {
      return from_front;
    }
    return back_->Resolve(name, creds);
  });
}

Status OverlayContext::Bind(const Name& name, sp<Object> object,
                            const Credentials& creds, bool replace) {
  return InDomain(
      [&] { return front_->Bind(name, std::move(object), creds, replace); });
}

Status OverlayContext::Unbind(const Name& name, const Credentials& creds) {
  return InDomain([&] { return front_->Unbind(name, creds); });
}

Result<std::vector<BindingInfo>> OverlayContext::List(
    const Credentials& creds) {
  return InDomain([&]() -> Result<std::vector<BindingInfo>> {
    ASSIGN_OR_RETURN(std::vector<BindingInfo> front_list, front_->List(creds));
    ASSIGN_OR_RETURN(std::vector<BindingInfo> back_list, back_->List(creds));
    std::set<std::string> seen;
    std::vector<BindingInfo> merged;
    for (auto& entry : front_list) {
      seen.insert(entry.name);
      merged.push_back(std::move(entry));
    }
    for (auto& entry : back_list) {
      if (seen.insert(entry.name).second) {
        merged.push_back(std::move(entry));
      }
    }
    return merged;
  });
}

Result<sp<Context>> OverlayContext::CreateContext(const Name& name,
                                                  const Credentials& creds) {
  return InDomain([&] { return front_->CreateContext(name, creds); });
}

// --- InterposerContext ---

sp<InterposerContext> InterposerContext::Create(
    sp<Domain> domain, sp<Context> target, ResolveInterceptor interceptor) {
  return sp<InterposerContext>(new InterposerContext(
      std::move(domain), std::move(target), std::move(interceptor)));
}

InterposerContext::InterposerContext(sp<Domain> domain, sp<Context> target,
                                     ResolveInterceptor interceptor)
    : Servant(std::move(domain)), target_(std::move(target)),
      interceptor_(std::move(interceptor)) {}

Result<sp<Object>> InterposerContext::Resolve(const Name& name,
                                              const Credentials& creds) {
  if (name.empty()) {
    return sp<Object>(std::static_pointer_cast<Object>(shared_from_this()));
  }
  return InDomain([&]() -> Result<sp<Object>> {
    ASSIGN_OR_RETURN(sp<Object> original, target_->Resolve(name, creds));
    // Only terminal resolutions are intercepted: a multi-component name is
    // a lookup *through* this context, and the interposed semantics apply
    // to the objects bound here, not to grandchildren.
    if (name.size() > 1) {
      return original;
    }
    intercept_count_.fetch_add(1, std::memory_order_relaxed);
    return interceptor_(name.front(), std::move(original));
  });
}

Status InterposerContext::Bind(const Name& name, sp<Object> object,
                               const Credentials& creds, bool replace) {
  return InDomain(
      [&] { return target_->Bind(name, std::move(object), creds, replace); });
}

Status InterposerContext::Unbind(const Name& name, const Credentials& creds) {
  return InDomain([&] { return target_->Unbind(name, creds); });
}

Result<std::vector<BindingInfo>> InterposerContext::List(
    const Credentials& creds) {
  return InDomain([&] { return target_->List(creds); });
}

Result<sp<Context>> InterposerContext::CreateContext(const Name& name,
                                                     const Credentials& creds) {
  return InDomain([&] { return target_->CreateContext(name, creds); });
}

Result<sp<InterposerContext>> InterposeOnContext(
    const sp<Context>& root, std::string_view path,
    ResolveInterceptor interceptor, const Credentials& creds,
    const sp<Domain>& interposer_domain) {
  ASSIGN_OR_RETURN(Name name, Name::Parse(path));
  if (name.empty()) {
    return ErrInvalidArgument("cannot interpose on the root");
  }
  ASSIGN_OR_RETURN(sp<Object> object, root->Resolve(name, creds));
  sp<Context> target = narrow<Context>(object);
  if (!target) {
    return ErrNotADirectory("'" + std::string(path) + "' is not a context");
  }
  sp<InterposerContext> interposer = InterposerContext::Create(
      interposer_domain, std::move(target), std::move(interceptor));
  // Re-bind: the interposer replaces the original context in the name space.
  RETURN_IF_ERROR(root->Bind(name, interposer, creds, /*replace=*/true));
  return interposer;
}

// --- DomainNamespace ---

DomainNamespace::DomainNamespace(sp<Domain> domain, sp<Context> shared_root) {
  private_root_ = MemContext::Create(domain);
  root_ = OverlayContext::Create(domain, private_root_, std::move(shared_root));
}

// --- ListDirectory ---

Result<std::vector<BindingInfo>> ListDirectory(const sp<Context>& under,
                                               const Name& dir,
                                               const Credentials& creds) {
  if (dir.empty()) {
    return under->List(creds);
  }
  ASSIGN_OR_RETURN(sp<Object> object, under->Resolve(dir, creds));
  sp<Context> context = narrow<Context>(object);
  if (!context) {
    return ErrNotADirectory("'" + dir.ToString() + "' is not a directory");
  }
  return context->List(creds);
}

}  // namespace springfs
