#include "src/core/config.h"

namespace numalp {

std::string_view NameOf(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLinux4K:
      return "Linux-4K";
    case PolicyKind::kThp:
      return "THP";
    case PolicyKind::kCarrefour2M:
      return "Carrefour-2M";
    case PolicyKind::kReactiveOnly:
      return "Reactive";
    case PolicyKind::kConservativeOnly:
      return "Conservative";
    case PolicyKind::kCarrefourLp:
      return "Carrefour-LP";
  }
  return "?";
}

PolicyConfig MakePolicyConfig(PolicyKind kind) {
  PolicyConfig config;
  config.kind = kind;
  switch (kind) {
    case PolicyKind::kLinux4K:
      break;
    case PolicyKind::kThp:
      config.initial_thp_alloc = true;
      config.initial_thp_promote = true;
      break;
    case PolicyKind::kCarrefour2M:
      config.initial_thp_alloc = true;
      config.initial_thp_promote = true;
      config.use_carrefour = true;
      break;
    case PolicyKind::kReactiveOnly:
      config.initial_thp_alloc = true;
      config.initial_thp_promote = true;
      config.use_carrefour = true;
      config.use_reactive = true;
      break;
    case PolicyKind::kConservativeOnly:
      // "The original Carrefour runtime (working on 4kB pages) together with
      // the conservative component" (Section 4.1).
      config.use_carrefour = true;
      config.use_conservative = true;
      break;
    case PolicyKind::kCarrefourLp:
      // "It is more practical and involves less overhead to enable large
      // pages in the beginning and disable them later" (Section 3.2).
      config.initial_thp_alloc = true;
      config.initial_thp_promote = true;
      config.use_carrefour = true;
      config.use_reactive = true;
      config.use_conservative = true;
      break;
  }
  return config;
}

}  // namespace numalp
