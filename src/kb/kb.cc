#include "src/kb/kb.h"

#include <algorithm>

#include "src/cfg/cfg.h"
#include "src/support/strings.h"

namespace refscan {

namespace {

// Direct refcounter field types (the paper's "basic structures", §5).
bool IsRefcounterFieldType(std::string_view type, std::string_view field_name) {
  if (type.find("refcount_t") != std::string_view::npos ||
      type.find("kref") != std::string_view::npos ||
      type.find("kobject") != std::string_view::npos) {
    return true;
  }
  if (type.find("atomic_t") != std::string_view::npos ||
      type.find("atomic_long_t") != std::string_view::npos) {
    const std::string lower = ToLower(field_name);
    return lower.find("ref") != std::string::npos || lower.find("cnt") != std::string::npos ||
           lower.find("count") != std::string::npos || lower.find("users") != std::string::npos;
  }
  return false;
}

// Extracts "X" from a field type like "struct X" / "const struct X".
std::string StructTag(std::string_view type) {
  const auto words = SplitWhitespace(type);
  for (size_t i = 0; i + 1 < words.size(); ++i) {
    if (words[i] == "struct" || words[i] == "union") {
      std::string tag(words[i + 1]);
      while (!tag.empty() && tag.back() == '*') {
        tag.pop_back();
      }
      return tag;
    }
  }
  return {};
}

bool TypeIsPointer(std::string_view type) {
  return type.find('*') != std::string_view::npos;
}

// Mirrors the identifier-word definition in strings.cc: words are
// alphanumeric runs, '_' is a separator.
bool IsNameWordChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}

}  // namespace

const std::vector<std::string>& IncreaseKeywords() {
  static const std::vector<std::string> kWords = {"get",  "take",   "hold", "grab",
                                                  "retain", "acquire", "inc",  "ref"};
  return kWords;
}

const std::vector<std::string>& DecreaseKeywords() {
  static const std::vector<std::string> kWords = {"put",  "drop", "unhold", "release",
                                                  "dec",  "unref"};
  return kWords;
}

bool NameSoundsLikeRefcounting(std::string_view name) {
  // Equivalent to probing ContainsIdentifierWord once per keyword in
  // IncreaseKeywords() + DecreaseKeywords() + "refcount", but in a single
  // pass over the name: split into identifier words once and test each word
  // against the keyword set, dispatching on (length, first char). Runs for
  // every candidate function during discovery.
  auto lower = [](char c) {
    return (c >= 'A' && c <= 'Z') ? static_cast<char>(c + ('a' - 'A')) : c;
  };
  auto word_is_keyword = [&](const char* p, size_t n) {
    char w[8];
    if (n > 8) {
      return false;
    }
    for (size_t k = 0; k < n; ++k) {
      w[k] = lower(p[k]);
    }
    const std::string_view word(w, n);
    switch (n) {
      case 3:
        return word == "get" || word == "inc" || word == "ref" || word == "put" || word == "dec";
      case 4:
        return word == "take" || word == "hold" || word == "grab" || word == "drop";
      case 5:
        return word == "unref";
      case 6:
        return word == "retain" || word == "unhold";
      case 7:
        return word == "acquire" || word == "release";
      case 8:
        return word == "refcount";
      default:
        return false;
    }
  };
  size_t i = 0;
  while (i < name.size()) {
    while (i < name.size() && !IsNameWordChar(name[i])) {
      ++i;
    }
    const size_t start = i;
    while (i < name.size() && IsNameWordChar(name[i])) {
      ++i;
    }
    if (i > start && word_is_keyword(name.data() + start, i - start)) {
      return true;
    }
  }
  return false;
}

const std::vector<std::pair<std::string, std::string>>& PairedOpsFields() {
  static const std::vector<std::pair<std::string, std::string>> kPairs = {
      {"probe", "remove"},      // platform_driver
      {"probe", "disconnect"},  // usb_driver
      {"open", "release"},      // file_operations
      {"connect", "shutdown"},  // proto_ops
      {"bind", "unbind"},       // component ops
      {"attach", "detach"},
  };
  return kPairs;
}

std::string PairedReleaseWord(std::string_view acquire_word) {
  static const std::vector<std::pair<std::string, std::string>> kPairs = {
      {"register", "unregister"}, {"create", "destroy"}, {"init", "uninit"},
      {"init", "exit"},           {"open", "close"},     {"start", "stop"},
      {"add", "del"},             {"alloc", "free"},     {"enable", "disable"},
      {"attach", "detach"},       {"probe", "remove"},
  };
  for (const auto& [a, r] : kPairs) {
    if (acquire_word == a) {
      return r;
    }
  }
  return {};
}

namespace {

// Interns a fixed name list once; membership is then a scan of ~a dozen
// 32-bit ids (the CPG runs these per call expression).
template <size_t N>
class SymbolNameSet {
 public:
  explicit SymbolNameSet(const std::string_view (&names)[N]) {
    for (size_t i = 0; i < N; ++i) {
      ids_[i] = Intern(names[i]).id();
    }
  }
  bool contains(Symbol s) const {
    for (const uint32_t id : ids_) {
      if (id == s.id()) {
        return true;
      }
    }
    return false;
  }

 private:
  uint32_t ids_[N];
};

}  // namespace

bool KnowledgeBase::IsFreeFunction(Symbol name) {
  static constexpr std::string_view kFrees[] = {"kfree",      "vfree",  "kvfree", "kzfree",
                                                "devm_kfree", "kmem_cache_free"};
  static const SymbolNameSet kSet(kFrees);
  return kSet.contains(name);
}

bool KnowledgeBase::IsLockFunction(Symbol name) {
  static constexpr std::string_view kLocks[] = {
      "mutex_lock",         "spin_lock",    "spin_lock_irq", "spin_lock_irqsave",
      "spin_lock_bh",       "read_lock",    "write_lock",    "down",
      "down_read",          "down_write",   "raw_spin_lock", "mutex_lock_interruptible",
  };
  static const SymbolNameSet kSet(kLocks);
  return kSet.contains(name);
}

bool KnowledgeBase::IsUnlockFunction(Symbol name) {
  static constexpr std::string_view kUnlocks[] = {
      "mutex_unlock", "spin_unlock", "spin_unlock_irq",  "spin_unlock_irqrestore",
      "spin_unlock_bh", "read_unlock", "write_unlock",   "up",
      "up_read",      "up_write",    "raw_spin_unlock",
  };
  static const SymbolNameSet kSet(kUnlocks);
  return kSet.contains(name);
}

KnowledgeBase::KnowledgeBase(const KnowledgeBase& other)
    : apis_(other.apis_),
      smart_loops_(other.smart_loops_),
      refcounted_structs_(other.refcounted_structs_),
      ownership_sinks_(other.ownership_sinks_),
      param_derefs_(other.param_derefs_),
      refcount_fields_(other.refcount_fields_),
      extra_free_fns_(other.extra_free_fns_) {
  RebuildApiIndex();
}

KnowledgeBase& KnowledgeBase::operator=(const KnowledgeBase& other) {
  if (this != &other) {
    apis_ = other.apis_;
    smart_loops_ = other.smart_loops_;
    refcounted_structs_ = other.refcounted_structs_;
    ownership_sinks_ = other.ownership_sinks_;
    param_derefs_ = other.param_derefs_;
    refcount_fields_ = other.refcount_fields_;
    extra_free_fns_ = other.extra_free_fns_;
    RebuildApiIndex();
  }
  return *this;
}

void KnowledgeBase::RebuildApiIndex() {
  api_index_.clear();
  api_index_.reserve(apis_.size());
  symbol_index_.clear();
  symbol_index_.reserve(apis_.size());
  for (const auto& [name, info] : apis_) {
    api_index_.emplace(name, &info);
    symbol_index_.emplace(Intern(name).id(), &info);
  }
  sink_index_.clear();
  for (const auto& [name, param] : ownership_sinks_) {
    sink_index_.emplace(Intern(name).id(), param);
  }
  deref_index_.clear();
  for (const auto& [name, params] : param_derefs_) {
    deref_index_.emplace(Intern(name).id(), &params);
  }
  field_index_.clear();
  for (const std::string& name : refcount_fields_) {
    field_index_.insert(Intern(name).id());
  }
  free_index_.clear();
  for (const std::string& name : extra_free_fns_) {
    free_index_.insert(Intern(name).id());
  }
}

RefApiInfo& KnowledgeBase::UpsertApi(RefApiInfo info) {
  const auto [it, inserted] = apis_.insert_or_assign(info.name, std::move(info));
  if (inserted) {
    api_index_.emplace(it->first, &it->second);
    symbol_index_.emplace(Intern(it->first).id(), &it->second);
  }
  return it->second;
}

void KnowledgeBase::AddApi(RefApiInfo info) {
  UpsertApi(std::move(info));
}

void KnowledgeBase::AddSmartLoop(SmartLoopInfo info) {
  smart_loops_.insert_or_assign(info.name, std::move(info));
}

void KnowledgeBase::AddRefcountedStruct(std::string name) {
  refcounted_structs_.insert(std::move(name));
}

void KnowledgeBase::AddRefcountField(std::string field_name) {
  field_index_.insert(Intern(field_name).id());
  refcount_fields_.insert(std::move(field_name));
}

void KnowledgeBase::AddFreeFunction(std::string name) {
  free_index_.insert(Intern(name).id());
  extra_free_fns_.insert(std::move(name));
}

bool KnowledgeBase::IsRefcountField(Symbol field_name) const {
  return !field_name.empty() && field_index_.contains(field_name.id());
}

bool KnowledgeBase::IsFreeApi(Symbol name) const {
  return IsFreeFunction(name) || (!name.empty() && free_index_.contains(name.id()));
}

const RefApiInfo* KnowledgeBase::FindApi(Symbol name) const {
  if (name.empty()) {
    return nullptr;
  }
  const auto it = symbol_index_.find(name.id());
  if (it != symbol_index_.end()) {
    return it->second;
  }
  // Rare fallback: kernel-internal "__" variants resolve via the text path.
  const std::string_view text = name.view();
  return text.starts_with("_") ? FindApi(text) : nullptr;
}

const RefApiInfo* KnowledgeBase::FindApi(std::string_view name) const {
  auto it = api_index_.find(name);
  if (it != api_index_.end()) {
    return it->second;
  }
  // Kernel-internal "__" variants share the public API's behaviour
  // (__of_find_matching_node, __pm_runtime_get_sync, ...).
  if (!name.starts_with("_")) {
    return nullptr;
  }
  while (name.starts_with("_")) {
    name.remove_prefix(1);
  }
  it = api_index_.find(name);
  return it == api_index_.end() ? nullptr : it->second;
}

const SmartLoopInfo* KnowledgeBase::FindSmartLoop(std::string_view name) const {
  auto it = smart_loops_.find(name);
  return it == smart_loops_.end() ? nullptr : &it->second;
}

bool KnowledgeBase::IsRefcountedStruct(std::string_view struct_name) const {
  return refcounted_structs_.find(struct_name) != refcounted_structs_.end();
}

KnowledgeBase KnowledgeBase::BuiltIn() {
  KnowledgeBase kb;

  auto add = [&kb](RefApiInfo info) { kb.UpsertApi(std::move(info)); };

  constexpr auto kInc = RefDirection::kIncrease;
  constexpr auto kDec = RefDirection::kDecrease;

  // ----- General refcounting APIs (§5 "General Refcounting APIs").
  for (const char* name : {"refcount_inc", "kref_get", "kobject_get", "atomic_inc"}) {
    add({.name = name, .direction = kInc, .category = ApiCategory::kGeneral});
  }
  for (const char* name : {"refcount_dec", "kref_put", "kobject_put", "atomic_dec"}) {
    add({.name = name, .direction = kDec, .category = ApiCategory::kGeneral});
  }
  // The *_dec_and_test family returns true exactly at the 1 -> 0 transition
  // (P11 keys on tests_zero; SNIPPETS.md refcount_dec_and_test).
  for (const char* name :
       {"refcount_dec_and_test", "atomic_dec_and_test", "atomic_long_dec_and_test"}) {
    add({.name = name, .direction = kDec, .category = ApiCategory::kGeneral,
         .tests_zero = true});
  }

  // ----- Specific (typed wrapper) APIs.
  add({.name = "get_device", .direction = kInc, .category = ApiCategory::kSpecific,
       .returns_object = true});
  add({.name = "put_device", .direction = kDec, .category = ApiCategory::kSpecific});
  add({.name = "of_node_get", .direction = kInc, .category = ApiCategory::kSpecific,
       .returns_object = true});
  add({.name = "of_node_put", .direction = kDec, .category = ApiCategory::kSpecific});
  add({.name = "dev_hold", .direction = kInc, .category = ApiCategory::kSpecific});
  add({.name = "dev_put", .direction = kDec, .category = ApiCategory::kSpecific});
  add({.name = "sock_hold", .direction = kInc, .category = ApiCategory::kSpecific});
  add({.name = "sock_put", .direction = kDec, .category = ApiCategory::kSpecific});
  add({.name = "usb_serial_get", .direction = kInc, .category = ApiCategory::kSpecific});
  add({.name = "usb_serial_put", .direction = kDec, .category = ApiCategory::kSpecific});
  add({.name = "fwnode_handle_get", .direction = kInc, .category = ApiCategory::kSpecific,
       .returns_object = true});
  add({.name = "fwnode_handle_put", .direction = kDec, .category = ApiCategory::kSpecific});
  add({.name = "pm_runtime_put", .direction = kDec, .category = ApiCategory::kSpecific});
  add({.name = "pm_runtime_put_sync", .direction = kDec, .category = ApiCategory::kSpecific});
  add({.name = "pm_runtime_put_noidle", .direction = kDec, .category = ApiCategory::kSpecific});
  add({.name = "lpfc_bsg_event_ref", .direction = kInc, .category = ApiCategory::kSpecific});

  // ----- Return-Error deviants (𝒢_E, §5.1.1 / Table 6 "ID Return-Error").
  add({.name = "pm_runtime_get_sync", .direction = kInc, .category = ApiCategory::kSpecific,
       .returns_error = true});
  add({.name = "kobject_init_and_add", .direction = kInc, .category = ApiCategory::kSpecific,
       .returns_error = true});

  // ----- Return-NULL deviants (𝒢_N, §5.1.2 / Table 6 "ID Return-NULL").
  add({.name = "mdesc_grab", .direction = kInc, .category = ApiCategory::kSpecific,
       .may_return_null = true, .returns_object = true, .object_param = -1});
  add({.name = "amdgpu_device_ip_init", .direction = kInc, .category = ApiCategory::kSpecific,
       .may_return_null = true, .returns_object = true, .object_param = -1});

  // ----- Refcounting-embedded, hidden APIs (Table 6 "H Inc./Dec.-Hidden").
  auto embedded = [&](const char* name, int consumed = -1) {
    add({.name = name, .direction = kInc, .category = ApiCategory::kEmbedded,
         .returns_object = true, .object_param = -1, .consumed_param = consumed,
         .hidden = true});
  };
  embedded("of_find_compatible_node", 0);
  embedded("of_find_matching_node", 0);
  embedded("of_find_node_by_name", 0);
  embedded("of_find_node_by_path");
  embedded("of_find_node_by_phandle");
  embedded("of_find_node_by_type", 0);
  embedded("of_parse_phandle");
  embedded("of_get_parent");
  embedded("of_get_child_by_name");
  embedded("of_get_next_child", 0);
  embedded("of_graph_get_port_by_id");
  embedded("of_graph_get_port_parent");
  embedded("of_get_node");
  embedded("bus_find_device");
  embedded("class_find_device");
  embedded("device_initialize");
  embedded("ip_dev_find");
  embedded("afs_alloc_read");
  embedded("perf_cpu_map__new");
  embedded("setup_find_cpu_node");
  embedded("gfs2_glock_nq_init");
  embedded("tipc_node_find");
  embedded("sockfd_lookup");
  embedded("fc_rport_lookup");
  embedded("rxrpc_lookup_peer");
  embedded("lookup_bdev");
  embedded("tcp_ulp_find_autoload");
  embedded("ipv4_neigh_lookup");
  embedded("mpol_shared_policy_lookup");
  embedded("usb_anchor_urb");
  embedded("tomoyo_mount_acl");
  embedded("nvmet_fc_tgt_q_get");
  add({.name = "nvmet_fc_tgt_q_put", .direction = kDec, .category = ApiCategory::kSpecific});

  // The embedded APIs that *sound* like refcounting keep hidden=false where
  // the keyword really is the dominant meaning; of_get_* keep hidden=true
  // per the paper (developers read them as pointer accessors).
  // (Handled above: all of_* embedded entries stay hidden.)

  // ----- Smartloops (ℳ_SL, Table 6 "H Complete-Hidden").
  auto loop = [&](const char* name, const char* api) {
    kb.smart_loops_.insert_or_assign(name,
                                     SmartLoopInfo{name, /*iterator_arg=*/0, api});
  };
  loop("for_each_matching_node", "of_find_matching_node");
  loop("for_each_child_of_node", "of_get_next_child");
  loop("for_each_available_child_of_node", "of_get_next_available_child");
  loop("for_each_endpoint_of_node", "of_graph_get_next_endpoint");
  loop("for_each_node_by_name", "of_find_node_by_name");
  loop("for_each_node_by_type", "of_find_node_by_type");
  loop("for_each_compatible_node", "of_find_compatible_node");
  loop("device_for_each_child_node", "fwnode_get_next_child_node");
  loop("fwnode_for_each_parent_node", "fwnode_get_parent");
  loop("fwnode_for_each_child_node", "fwnode_get_next_child_node");
  loop("for_each_cpu_node", "setup_find_cpu_node");

  // Iterator arg positions that differ from 0.
  kb.smart_loops_.at("for_each_child_of_node").iterator_arg = 1;
  kb.smart_loops_.at("for_each_available_child_of_node").iterator_arg = 1;
  kb.smart_loops_.at("device_for_each_child_node").iterator_arg = 1;
  kb.smart_loops_.at("fwnode_for_each_child_node").iterator_arg = 1;

  // ----- Built-in ownership sinks: registering a release callback hands
  // the reference to the devres machinery (devm_add_action(dev, fn, data)
  // — the data argument, index 2 — will be released by fn at teardown).
  kb.AddOwnershipSink("devm_add_action", 2);
  kb.AddOwnershipSink("devm_add_action_or_reset", 2);

  // ----- Refcounted base structures.
  for (const char* s : {"kref", "kobject", "device", "device_node", "sock", "net_device",
                        "usb_serial", "fwnode_handle", "nvmem_device"}) {
    kb.refcounted_structs_.insert(s);
  }

  return kb;
}

DiscoveryFacts ExtractDiscoveryFacts(const TranslationUnit& unit) {
  DiscoveryFacts facts;

  facts.structs.reserve(unit.structs.size());
  for (const StructDef& def : unit.structs) {
    DiscoveryFacts::Struct s;
    s.name = def.name.str();
    s.fields.reserve(def.fields.size());
    for (const StructField& field : def.fields) {
      DiscoveryFacts::Field f;
      f.direct_refcounter = IsRefcounterFieldType(field.type.view(), field.name.view());
      f.nested_tag = StructTag(field.type.view());
      f.name = field.name.str();
      s.fields.push_back(std::move(f));
    }
    facts.structs.push_back(std::move(s));
  }

  for (const FunctionDef& fn : unit.functions) {
    if (fn.body == nullptr) {
      continue;
    }
    DiscoveryFacts::Function f;
    f.name = fn.name.str();
    f.returns_pointer = TypeIsPointer(fn.return_type.view());

    SymbolSet locals;
    ForEachStmt(*fn.body, [&f, &locals](const Stmt& s) {
      if (s.kind == Stmt::Kind::kDecl && !s.name.empty()) {
        locals.insert(s.name);
      }
      if (s.kind == Stmt::Kind::kReturn && s.expr != nullptr) {
        if (s.expr->kind == Expr::Kind::kIdent && s.expr->value == "NULL") {
          f.has_return_null = true;
        }
        if (ReturnsErrorCode(s)) {
          f.has_error_return = true;
        }
      }
    });

    ForEachExpr(*fn.body, [&](const Expr& e) {
      if (e.kind == Expr::Kind::kCall) {
        const Symbol callee = e.CalleeName();
        // An empty callee (function-pointer call) can never resolve in the
        // KB, so it contributes no event.
        if (!callee.empty()) {
          DiscoveryFacts::RefEvent ev;
          ev.is_call = true;
          ev.callee = callee.str();
          if (e.args.size() > 1 && e.args[1] != nullptr &&
              e.args[1]->kind == Expr::Kind::kIdent) {
            for (size_t p = 0; p < fn.params.size(); ++p) {
              if (fn.params[p].name == e.args[1]->value) {
                ev.arg1_param = static_cast<int>(p);
              }
            }
          }
          f.events.push_back(std::move(ev));
        }
      }
      if (e.kind == Expr::Kind::kUnary && (e.value == "++" || e.value == "--") &&
          !e.args.empty() && e.args[0] != nullptr && e.args[0]->kind == Expr::Kind::kMember) {
        const std::string lower = ToLower(e.args[0]->value.view());
        if (lower.find("ref") != std::string::npos || lower.find("count") != std::string::npos) {
          DiscoveryFacts::RefEvent ev;
          ev.increase = e.value == "++";
          f.events.push_back(std::move(ev));
        }
      }
      // Ownership-sink shape: a parameter (bare identifier rhs) assigned
      // into a member chain rooted outside the function's locals. The last
      // matching assignment wins, mirroring insert_or_assign order.
      if (e.kind == Expr::Kind::kAssign && e.args.size() >= 2 && e.args[0] != nullptr &&
          e.args[1] != nullptr) {
        const Expr& lhs = *e.args[0];
        const Expr& rhs = *e.args[1];
        if (rhs.kind == Expr::Kind::kIdent && lhs.kind == Expr::Kind::kMember) {
          int param_index = -1;
          for (size_t p = 0; p < fn.params.size(); ++p) {
            if (fn.params[p].name == rhs.value) {
              param_index = static_cast<int>(p);
            }
          }
          if (param_index >= 0) {
            const Expr* root = &lhs;
            while (root->kind == Expr::Kind::kMember && !root->args.empty() &&
                   root->args[0] != nullptr) {
              root = root->args[0];
            }
            if (root->kind == Expr::Kind::kIdent && !locals.contains(root->value) &&
                root->value != rhs.value) {
              f.sink_param = param_index;
            }
          }
        }
      }
    });
    facts.functions.push_back(std::move(f));
  }

  for (const MacroDef& macro : unit.macros) {
    // Object-like macros and bodies without a loop can never classify as
    // smartloops, independent of KB state — prune them at extraction.
    if (macro.params.empty() || macro.body.find("for") == std::string::npos) {
      continue;
    }
    DiscoveryFacts::Macro m;
    m.name = macro.name.str();
    m.params.reserve(macro.params.size());
    for (const Symbol p : macro.params) {
      m.params.push_back(p.str());
    }
    m.body = macro.body;
    facts.macros.push_back(std::move(m));
  }
  return facts;
}

void KnowledgeBase::DiscoverFromUnit(const TranslationUnit& unit, int nesting_threshold) {
  DiscoverFromFacts(ExtractDiscoveryFacts(unit), nesting_threshold);
}

void KnowledgeBase::DiscoverFromFacts(const DiscoveryFacts& facts, int nesting_threshold) {
  DiscoverStructs(facts, nesting_threshold);
  DiscoverFunctions(facts);
  DiscoverMacros(facts);
  DiscoverOwnershipSinks(facts);
}

int KnowledgeBase::FindOwnershipSink(std::string_view function_name) const {
  auto it = ownership_sinks_.find(function_name);
  return it == ownership_sinks_.end() ? -1 : it->second;
}

int KnowledgeBase::FindOwnershipSink(Symbol function_name) const {
  if (function_name.empty()) {
    return -1;
  }
  const auto it = sink_index_.find(function_name.id());
  return it == sink_index_.end() ? -1 : it->second;
}

void KnowledgeBase::AddOwnershipSink(std::string name, int param_index) {
  const Symbol sym = Intern(name);
  ownership_sinks_.insert_or_assign(std::move(name), param_index);
  sink_index_.insert_or_assign(sym.id(), param_index);
}

const std::vector<int>* KnowledgeBase::FindParamDerefs(std::string_view name) const {
  const auto it = param_derefs_.find(name);
  return it == param_derefs_.end() ? nullptr : &it->second;
}

const std::vector<int>* KnowledgeBase::FindParamDerefs(Symbol name) const {
  if (name.empty()) {
    return nullptr;
  }
  const auto it = deref_index_.find(name.id());
  return it == deref_index_.end() ? nullptr : it->second;
}

void KnowledgeBase::AddParamDerefs(std::string name, std::vector<int> param_indices) {
  const Symbol sym = Intern(name);
  const auto [it, ignored] =
      param_derefs_.insert_or_assign(std::move(name), std::move(param_indices));
  deref_index_.insert_or_assign(sym.id(), &it->second);
}

RefApiInfo* KnowledgeBase::FindApiMutable(std::string_view name) {
  const auto it = apis_.find(name);
  return it == apis_.end() ? nullptr : &it->second;
}

void KnowledgeBase::DiscoverOwnershipSinks(const DiscoveryFacts& facts) {
  for (const DiscoveryFacts::Function& fn : facts.functions) {
    if (fn.sink_param < 0 || ownership_sinks_.contains(fn.name)) {
      continue;
    }
    AddOwnershipSink(fn.name, fn.sink_param);
  }
}

void KnowledgeBase::DiscoverStructs(const DiscoveryFacts& facts, int nesting_threshold) {
  // Direct refcounter fields feed the refcount-field name registry (P10):
  // a later raw ++/--/= on a member with one of these names bypasses the
  // checked APIs. Independent of the struct classification below, so a
  // struct already known (built-in or earlier unit) still contributes.
  for (const DiscoveryFacts::Struct& def : facts.structs) {
    for (const DiscoveryFacts::Field& field : def.fields) {
      if (field.direct_refcounter && !field.name.empty()) {
        AddRefcountField(field.name);
      }
    }
  }

  // Level 0: direct refcounter fields. Levels 1..threshold: a field whose
  // struct type was classified in a *previous* level (per-level snapshot so
  // one pass advances nesting depth by exactly one).
  for (int level = 0; level <= nesting_threshold; ++level) {
    std::set<std::string> added;
    for (const DiscoveryFacts::Struct& def : facts.structs) {
      if (refcounted_structs_.contains(def.name)) {
        continue;
      }
      for (const DiscoveryFacts::Field& field : def.fields) {
        const bool direct = level == 0 && field.direct_refcounter;
        const bool nested = level > 0 && !field.nested_tag.empty() &&
                            refcounted_structs_.contains(field.nested_tag);
        if (direct || nested) {
          added.insert(def.name);
          break;
        }
      }
    }
    if (level > 0 && added.empty()) {
      break;
    }
    refcounted_structs_.insert(added.begin(), added.end());
  }
}

void KnowledgeBase::DiscoverFunctions(const DiscoveryFacts& facts) {
  for (const DiscoveryFacts::Function& fn : facts.functions) {
    if (api_index_.contains(fn.name)) {
      continue;
    }

    // Replay the body's refcounting operations against the *current* KB:
    // calls to known APIs, and inc/dec of a refcounter member
    // (`refcount_inc(&x->refcnt)` is a call; `x->refcnt++` is a unary op).
    bool increases = false;
    bool decreases = false;
    int consumed_param = -1;

    for (const DiscoveryFacts::RefEvent& ev : fn.events) {
      if (ev.is_call) {
        const RefApiInfo* callee = FindApi(ev.callee);
        if (callee != nullptr) {
          if (callee->direction == RefDirection::kIncrease) {
            increases = true;
          } else {
            decreases = true;
            // Does this decrement hit one of our parameters? (of_find_*(from))
            if (ev.arg1_param >= 0) {
              consumed_param = ev.arg1_param;
            }
          }
        }
      } else {
        (ev.increase ? increases : decreases) = true;
      }
    }

    if (!increases && !decreases) {
      continue;
    }

    RefApiInfo info;
    info.name = fn.name;
    // A function that both increases (the returned node) and decreases (the
    // `from` argument) is the find-like shape; classify by its primary
    // effect: the increase it hands to the caller.
    info.direction = increases ? RefDirection::kIncrease : RefDirection::kDecrease;
    info.hidden = !NameSoundsLikeRefcounting(fn.name);
    info.category = info.hidden ? ApiCategory::kEmbedded : ApiCategory::kSpecific;
    info.returns_object = fn.returns_pointer;
    info.object_param = info.returns_object ? -1 : 0;
    info.may_return_null = info.returns_object && fn.has_return_null &&
                           info.direction == RefDirection::kIncrease;
    info.returns_error = !info.returns_object && fn.has_error_return &&
                         info.direction == RefDirection::kIncrease;
    info.consumed_param = increases ? consumed_param : -1;
    info.discovered = true;
    UpsertApi(std::move(info));
  }
}

void KnowledgeBase::DiscoverMacros(const DiscoveryFacts& facts) {
  for (const DiscoveryFacts::Macro& macro : facts.macros) {
    if (smart_loops_.contains(macro.name)) {
      continue;
    }
    // The macro is a smartloop if its body invokes a refcounting API
    // (typically an embedded find-like one). A matching API name must end
    // immediately before some '(' in the body, i.e. be a suffix of the
    // identifier run preceding that paren — so one scan over the body with
    // hashed suffix probes replaces a substring search per known API, and
    // taking the lexicographically smallest hit reproduces the sorted-map
    // iteration order of the old per-API probe exactly.
    const std::string_view body = macro.body;
    auto word_char = [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
             c == '_';
    };
    std::string_view embedded_sv;
    for (size_t pos = body.find('('); pos != std::string_view::npos;
         pos = body.find('(', pos + 1)) {
      size_t start = pos;
      while (start > 0 && word_char(body[start - 1])) {
        --start;
      }
      for (size_t s = start; s < pos; ++s) {
        const std::string_view cand = body.substr(s, pos - s);
        if (api_index_.contains(cand) && (embedded_sv.empty() || cand < embedded_sv)) {
          embedded_sv = cand;
        }
      }
    }
    const std::string embedded(embedded_sv);
    if (embedded.empty()) {
      continue;
    }
    SmartLoopInfo loop;
    loop.name = macro.name;
    loop.embedded_api = embedded;
    // The iterator is the macro parameter assigned from the embedded API:
    // "dn = of_find_matching_node(...)". Fall back to parameter 0.
    loop.iterator_arg = 0;
    for (size_t p = 0; p < macro.params.size(); ++p) {
      const std::string pattern = macro.params[p] + " = " + embedded;
      const std::string tight = macro.params[p] + "=" + embedded;
      if (macro.body.find(pattern) != std::string::npos ||
          macro.body.find(tight) != std::string::npos) {
        loop.iterator_arg = static_cast<int>(p);
        break;
      }
    }
    smart_loops_.insert_or_assign(loop.name, std::move(loop));
  }
}

const std::vector<std::string>& KnownDialects() {
  static const std::vector<std::string> kDialects = {"glib", "uacpi"};
  return kDialects;
}

bool ApplyDialect(KnowledgeBase& kb, std::string_view dialect) {
  constexpr auto kInc = RefDirection::kIncrease;
  constexpr auto kDec = RefDirection::kDecrease;
  auto add = [&kb](RefApiInfo info) { kb.AddApi(std::move(info)); };

  if (dialect == "uacpi") {
    // uACPI shareables (SNIPPETS.md): reference_count with the sticky
    // BUGGED_REFCOUNT saturation sentinel; ref/unref return the *previous*
    // value, so unref() == 1 means the last reference just dropped.
    add({.name = "uacpi_shareable_init", .direction = kInc,
         .category = ApiCategory::kSpecific});
    add({.name = "uacpi_shareable_ref", .direction = kInc,
         .category = ApiCategory::kSpecific});
    add({.name = "uacpi_shareable_unref", .direction = kDec,
         .category = ApiCategory::kSpecific, .tests_zero = true});
    add({.name = "uacpi_shareable_unref_and_delete_if_last", .direction = kDec,
         .category = ApiCategory::kSpecific});
    kb.AddRefcountedStruct("uacpi_shareable");
    kb.AddRefcountField("reference_count");
    kb.AddFreeFunction("uacpi_free");
    kb.AddFreeFunction("uacpi_kernel_free");
    return true;
  }

  if (dialect == "glib") {
    add({.name = "g_object_ref", .direction = kInc, .category = ApiCategory::kSpecific,
         .returns_object = true, .object_param = -1});
    add({.name = "g_object_ref_sink", .direction = kInc,
         .category = ApiCategory::kSpecific, .returns_object = true, .object_param = -1});
    add({.name = "g_object_unref", .direction = kDec, .category = ApiCategory::kSpecific});
    add({.name = "g_clear_object", .direction = kDec, .category = ApiCategory::kSpecific});
    add({.name = "g_atomic_int_dec_and_test", .direction = kDec,
         .category = ApiCategory::kGeneral, .tests_zero = true});
    kb.AddRefcountedStruct("GObject");
    kb.AddRefcountField("ref_count");
    kb.AddFreeFunction("g_free");
    kb.AddFreeFunction("g_slice_free");
    return true;
  }

  return false;
}

}  // namespace refscan
