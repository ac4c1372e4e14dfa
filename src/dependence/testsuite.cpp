#include "dependence/testsuite.h"

#include <algorithm>

#include "dependence/fm.h"
#include "support/hash.h"

namespace ps::dep {

using dataflow::LinearExpr;
using fortran::Expr;
using fortran::ExprKind;

namespace {

/// Name of the normalized iteration variable for loop k on one side.
std::string tvar(int k, bool shared, bool isSrc) {
  std::string name = "t" + std::to_string(k);
  if (!shared) name += isSrc ? "#s" : "#d";
  return name;
}

std::string sideTag(const std::string& base, bool isSrc) {
  return base + (isSrc ? "#s" : "#d");
}

}  // namespace

void TestStats::accumulate(const TestStats& o) {
  zivDisproofs += o.zivDisproofs;
  zivExact += o.zivExact;
  strongSiv += o.strongSiv;
  strongSivDisproofs += o.strongSivDisproofs;
  indexArrayDisproofs += o.indexArrayDisproofs;
  fmRuns += o.fmRuns;
  fmDisproofs += o.fmDisproofs;
  assumed += o.assumed;
  fmDegraded += o.fmDegraded;
  degradedAnswers += o.degradedAnswers;
  linearizeDegraded += o.linearizeDegraded;
  symbolicTruncated += o.symbolicTruncated;
  testsRequested += o.testsRequested;
  memoHits += o.memoHits;
  memoMisses += o.memoMisses;
  pairsTested += o.pairsTested;
  pairBatches += o.pairBatches;
  dataflowSeconds += o.dataflowSeconds;
  pairSeconds += o.pairSeconds;
  otherSeconds += o.otherSeconds;
  totalSeconds += o.totalSeconds;
}

void appendLinearKey(std::string& out, const LinearExpr& e) {
  out += e.affine ? 'a' : 'n';
  out += std::to_string(e.constant);
  for (const auto& [v, c] : e.coef) {  // std::map: deterministic order
    out += ',';
    out += v;
    out += ':';
    out += std::to_string(c);
  }
  out += ';';
}

MemoKey::MemoKey(std::string t)
    : text(std::move(t)), hash(support::xxh64(text)) {}

std::optional<LevelResult> DepMemo::lookup(const MemoKey& key) const {
  Shard& s = shardFor(key);
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.table.find(key.text);
  if (it == s.table.end()) return std::nullopt;
  return it->second;
}

void DepMemo::insert(const MemoKey& key, const LevelResult& result) {
  Shard& s = shardFor(key);
  std::lock_guard<std::mutex> lk(s.mu);
  s.table[key.text] = result;
}

std::size_t DepMemo::size() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    total += s.table.size();
  }
  return total;
}

std::vector<std::pair<std::string, LevelResult>> DepMemo::exportEntries()
    const {
  std::vector<std::pair<std::string, LevelResult>> out;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    out.insert(out.end(), s.table.begin(), s.table.end());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

DependenceTester::DependenceTester(std::vector<LoopContext> commonLoops,
                                   std::vector<Fact> facts,
                                   IndexArrayFacts indexFacts,
                                   OpaqueTable& opaques,
                                   std::set<std::string> variantVars,
                                   bool cheapFirst, DepMemo* memo,
                                   AnalysisBudget budget)
    : loops_(std::move(commonLoops)),
      facts_(std::move(facts)),
      indexFacts_(std::move(indexFacts)),
      opaques_(opaques),
      variantVars_(std::move(variantVars)),
      cheapFirst_(cheapFirst),
      memo_(memo),
      budget_(budget) {
  if (!memo_) return;
  // Canonical prefix: every per-nest/per-context input that influences a
  // test result but is not part of the per-query subscript forms. Mutable
  // user state (classification overrides) deliberately does NOT appear: it
  // never changes a test outcome, only whether a test is issued.
  keyPrefix_ += cheapFirst_ ? "c" : "f";
  // Budgets change answers (a tighter budget degrades more queries), so a
  // memo shared across budget configurations must key on them.
  keyPrefix_ += "B" + std::to_string(budget_.fmMaxConstraints) + "," +
                std::to_string(budget_.fmMaxEliminations) + "," +
                std::to_string(budget_.maxSubscriptNodes) + ";";
  for (const LoopContext& lc : loops_) {
    keyPrefix_ += "L";
    keyPrefix_ += std::to_string(lc.step);
    keyPrefix_ += '~';
    appendLinearKey(keyPrefix_, lc.lo);
    appendLinearKey(keyPrefix_, lc.hi);
  }
  keyPrefix_ += "F";
  for (const Fact& f : facts_) {
    keyPrefix_ += f.strict ? '>' : '!';
    appendLinearKey(keyPrefix_, f.expr);
  }
  keyPrefix_ += "I";
  for (const auto& a : indexFacts_.permutation) keyPrefix_ += "p" + a + ";";
  for (const auto& [a, k] : indexFacts_.strided) {
    keyPrefix_ += "s" + a + ":" + std::to_string(k) + ";";
  }
  for (const auto& [ab, k] : indexFacts_.separated) {
    keyPrefix_ +=
        "x" + ab.first + "," + ab.second + ":" + std::to_string(k) + ";";
  }
  // Iteration-variant scalars alter side-tagging of symbolic terms; the
  // tags land in the diff forms, but a variable may also *stop* being
  // variant, which changes nothing in the key — so pin the set here.
  keyPrefix_ += "V";
  for (const auto& v : variantVars_) keyPrefix_ += v + ",";
}

MemoKey DependenceTester::makeKey(
    char tag, int level, int variant,
    const std::vector<LinearExpr>& forms) const {
  std::string key = keyPrefix_;
  key += '|';
  key += tag;
  key += std::to_string(level);
  key += '.';
  key += std::to_string(variant);
  key += '|';
  for (const LinearExpr& f : forms) appendLinearKey(key, f);
  return MemoKey(std::move(key));
}

bool DependenceTester::variantAtOrBelow(const std::string& var,
                                        int level) const {
  // Is `var` an induction variable whose value differs between the two
  // iterations being compared? For level 0 every common IV agrees; for a
  // carried test at L, loops L..n differ (1-based).
  for (std::size_t k = 0; k < loops_.size(); ++k) {
    if (loops_[k].iv == var) {
      if (level == 0) return false;
      return static_cast<int>(k) >= level - 1;
    }
  }
  // Not a common IV: a scalar defined somewhere in the nest may hold
  // different values at the two references even in the same iteration.
  return variantVars_.count(var) > 0;
}

LinearExpr DependenceTester::tagForm(const LinearExpr& f, int level,
                                     bool isSrc) const {
  LinearExpr out;
  out.constant = f.constant;
  out.affine = f.affine;
  out.hasIndexArray = f.hasIndexArray;
  out.hasCall = f.hasCall;
  out.degraded = f.degraded;
  for (const auto& [v, c] : f.coef) {
    // Induction variable of a common loop: normalize to lo + step*t.
    bool handled = false;
    for (std::size_t k = 0; k < loops_.size(); ++k) {
      if (loops_[k].iv != v) continue;
      handled = true;
      const LoopContext& lc = loops_[k];
      bool shared = (level == 0) || (static_cast<int>(k) < level - 1);
      if (lc.step != 0) {
        out.add(lc.lo, c);
        std::string t = tvar(static_cast<int>(k), shared, isSrc);
        out.coef[t] += c * lc.step;
        if (out.coef[t] == 0) out.coef.erase(t);
      } else {
        std::string name = shared ? v : sideTag(v, isSrc);
        out.coef[name] += c;
        if (out.coef[name] == 0) out.coef.erase(name);
      }
      break;
    }
    if (handled) continue;
    if (!v.empty() && v[0] == '@') {
      // Opaque term: shared unless it mentions an iteration-variant
      // variable.
      const OpaqueTerm* term = opaques_.find(v);
      bool variant = false;
      if (term) {
        for (const auto& w : term->vars) {
          if (variantAtOrBelow(w, level)) variant = true;
        }
      } else {
        variant = true;  // unknown term: be conservative
      }
      std::string name = variant ? sideTag(v, isSrc) : v;
      out.coef[name] += c;
      if (out.coef[name] == 0) out.coef.erase(name);
      continue;
    }
    // Plain symbolic scalar.
    bool variant = variantVars_.count(v) > 0;
    std::string name = variant ? sideTag(v, isSrc) : v;
    out.coef[name] += c;
    if (out.coef[name] == 0) out.coef.erase(name);
  }
  return out;
}

LinearExpr DependenceTester::tagged(
    const Expr& e, const std::map<std::string, LinearExpr>& sub, int level,
    bool isSrc) {
  LinearExpr raw =
      linearizeSubscript(e, sub, opaques_, budget_.maxSubscriptNodes);
  if (raw.degraded) ++stats_.linearizeDegraded;
  return tagForm(raw, level, isSrc);
}

bool DependenceTester::indexArrayDisproof(const LinearExpr& diff,
                                          int level) const {
  if (indexFacts_.empty() || level == 0) return false;
  // Pattern: diff = (+1)*@A(...)#d + (-1)*@B(...)#s + constant, with no
  // other variables.
  std::string pos, neg;
  for (const auto& [v, c] : diff.coef) {
    if (v.size() > 1 && v[0] == '@' && (c == 1 || c == -1)) {
      std::string base = v.substr(0, v.find('#'));
      if (c == 1 && pos.empty()) {
        pos = base;
        continue;
      }
      if (c == -1 && neg.empty()) {
        neg = base;
        continue;
      }
    }
    return false;  // anything else: pattern not matched
  }
  if (pos.empty() || neg.empty()) return false;
  const OpaqueTerm* posT = opaques_.find(pos);
  const OpaqueTerm* negT = opaques_.find(neg);
  if (!posT || !negT || posT->array.empty() || negT->array.empty()) {
    return false;
  }
  const long long c = diff.constant;
  const std::string& carrier = loops_[static_cast<std::size_t>(level - 1)].iv;

  if (posT->array == negT->array && posT->innerPrinted == negT->innerPrinted) {
    // Same A(inner) on both sides, different iterations. The inner
    // subscript must be driven by the carrier so different iterations give
    // different arguments.
    if (posT->innerPrinted != carrier &&
        !posT->vars.count(carrier)) {
      return false;
    }
    // PERMUTATION: distinct args -> distinct values, so diff = (Ad - As) + c
    // with Ad != As; only disproves when c == 0 would force Ad == As.
    if (c == 0 && indexFacts_.permutation.count(posT->array) &&
        posT->innerPrinted == carrier) {
      return true;
    }
    // STRIDED(A, k): with the '<' direction the destination iteration is
    // later, so Ad - As >= k; diff >= k + c > 0 disproves.
    auto it = indexFacts_.strided.find(posT->array);
    if (it != indexFacts_.strided.end() && posT->innerPrinted == carrier &&
        it->second + c >= 1) {
      return true;
    }
    return false;
  }

  // Different arrays: SEPARATED(A, B, k) gives B(y) - A(x) >= k for all
  // arguments.
  auto sep = indexFacts_.separated.find({negT->array, posT->array});
  if (sep != indexFacts_.separated.end()) {
    // diff = pos - neg + c where pos is B-like, neg is A-like:
    // diff >= k + c.
    if (sep->second + c >= 1) return true;
  }
  auto sep2 = indexFacts_.separated.find({posT->array, negT->array});
  if (sep2 != indexFacts_.separated.end()) {
    // neg - pos >= k, so diff = pos - neg + c <= -k + c.
    if (-sep2->second + c <= -1) return true;
  }
  return false;
}

LevelResult DependenceTester::test(const RefPair& pair, int level,
                                   Direction innerDir) {
  ++stats_.testsRequested;

  // Dimension count: treat the common prefix.
  std::size_t dims = std::min(pair.src->args.size(), pair.dst->args.size());
  std::vector<LinearExpr> diffs;
  diffs.reserve(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    LinearExpr s = tagged(*pair.src->args[d], *pair.srcSub, level, true);
    LinearExpr t = tagged(*pair.dst->args[d], *pair.dstSub, level, false);
    LinearExpr diff = t;
    diff.add(s, -1);
    diffs.push_back(std::move(diff));
  }

  MemoKey key;
  if (memo_) {
    key = makeKey('t', level, static_cast<int>(innerDir), diffs);
    if (std::optional<LevelResult> hit = memo_->lookup(key)) {
      ++stats_.memoHits;
      return *hit;
    }
    ++stats_.memoMisses;
  }
  LevelResult result = runSuite(diffs, level, innerDir);
  if (memo_) memo_->insert(key, result);
  return result;
}

LevelResult DependenceTester::runSuite(const std::vector<LinearExpr>& diffs,
                                       int level, Direction innerDir) {
  LevelResult result;
  bool allExact = true;
  bool anyDegraded = false;
  for (const LinearExpr& diff : diffs) anyDegraded |= diff.degraded;
  std::optional<long long> distance;

  // With an inner-direction constraint, the cheap tiers may still disprove,
  // but an exact-dependence answer must come from the constrained FM run.
  const bool constrained =
      innerDir != Direction::Star && level > 0 &&
      static_cast<std::size_t>(level) < loops_.size();

  if (cheapFirst_) {
    for (const LinearExpr& diff : diffs) {
      // --- ZIV tier ---
      if (diff.coef.empty()) {
        if (diff.constant != 0) {
          ++stats_.zivDisproofs;
          result.answer = DepAnswer::NoDependence;
          return result;
        }
        ++stats_.zivExact;
        continue;
      }
      // --- strong SIV tier ---
      if (level > 0 && diff.coef.size() == 2) {
        std::string ts = tvar(level - 1, false, true);
        std::string td = tvar(level - 1, false, false);
        long long cs = diff.coefOf(ts);
        long long cd = diff.coefOf(td);
        if (cs != 0 && cd == -cs) {
          ++stats_.strongSiv;
          // cd*(td - ts) + constant == 0  =>  td - ts = -constant/cd.
          if (diff.constant % cd != 0) {
            ++stats_.strongSivDisproofs;
            result.answer = DepAnswer::NoDependence;
            return result;
          }
          long long dist = -diff.constant / cd;
          if (dist < 1) {  // '<' direction requires td > ts
            ++stats_.strongSivDisproofs;
            result.answer = DepAnswer::NoDependence;
            return result;
          }
          // Trip-count bound when constant.
          const LoopContext& lc =
              loops_[static_cast<std::size_t>(level - 1)];
          if (lc.step != 0 && lc.lo.isConstant() && lc.hi.isConstant()) {
            long long span = (lc.step > 0)
                                 ? (lc.hi.constant - lc.lo.constant) / lc.step
                                 : (lc.lo.constant - lc.hi.constant) /
                                       (-lc.step);
            if (span < 0) span = -1;  // zero-trip loop
            if (dist > span) {
              ++stats_.strongSivDisproofs;
              result.answer = DepAnswer::NoDependence;
              return result;
            }
          }
          if (distance && *distance != dist) {
            // Two dimensions demand different distances: impossible.
            ++stats_.strongSivDisproofs;
            result.answer = DepAnswer::NoDependence;
            return result;
          }
          distance = dist;
          continue;
        }
      }
      // --- index-array assertion tier ---
      if (indexArrayDisproof(diff, level)) {
        ++stats_.indexArrayDisproofs;
        result.answer = DepAnswer::NoDependence;
        return result;
      }
      allExact = false;
    }
    if (allExact && !constrained) {
      result.answer = DepAnswer::DependenceExact;
      result.distance = distance;
      return result;
    }
  } else {
    allExact = false;
  }

  // --- Fourier–Motzkin tier: joint system over all dimensions ---
  std::vector<Constraint> cs;
  for (const LinearExpr& diff : diffs) {
    cs.push_back(Constraint::eq0(diff));
  }
  if (constrained) {
    const LoopContext& lc = loops_[static_cast<std::size_t>(level)];
    if (lc.step != 0) {
      LinearExpr delta;
      delta.coef[tvar(level, false, false)] = 1;
      delta.coef[tvar(level, false, true)] = -1;
      switch (innerDir) {
        case Direction::Lt:
          cs.push_back(Constraint::gt0(delta));
          break;
        case Direction::Eq:
          cs.push_back(Constraint::eq0(delta));
          break;
        case Direction::Gt: {
          LinearExpr neg;
          neg.add(delta, -1);
          cs.push_back(Constraint::gt0(neg));
          break;
        }
        default:
          break;
      }
    }
  }
  if (finishFm(std::move(cs), level, &anyDegraded)) {
    result.answer = DepAnswer::NoDependence;
    return result;
  }

  ++stats_.assumed;
  result.answer = DepAnswer::DependenceAssumed;
  result.distance = distance;
  // A budget ran out somewhere on the way to "assumed": the edge might have
  // been disproved with more work. Tag it so the session can report it.
  if (anyDegraded) {
    result.degraded = true;
    ++stats_.degradedAnswers;
  }
  return result;
}

bool DependenceTester::finishFm(std::vector<Constraint> cs, int level,
                                bool* degraded) {
  std::set<std::string> seenTVars;
  auto addBounds = [&](const std::string& tv, int k) {
    if (seenTVars.count(tv)) return;
    seenTVars.insert(tv);
    const LoopContext& lc = loops_[static_cast<std::size_t>(k)];
    if (lc.step == 0) return;
    LinearExpr tNonNeg;
    tNonNeg.coef[tv] = 1;
    cs.push_back(Constraint::ge0(tNonNeg));
    // Value stays within [lo, hi]:  s>0: hi - lo - s*t >= 0;
    //                               s<0: lo + s*t - hi >= 0.
    LinearExpr bound;
    if (lc.step > 0) {
      bound = lc.hi;
      bound.add(lc.lo, -1);
      bound.coef[tv] -= lc.step;
      if (bound.coef[tv] == 0) bound.coef.erase(tv);
    } else {
      bound = lc.lo;
      bound.add(lc.hi, -1);
      bound.coef[tv] += lc.step;
      if (bound.coef[tv] == 0) bound.coef.erase(tv);
    }
    if (bound.affine) cs.push_back(Constraint::ge0(bound));
  };

  for (std::size_t k = 0; k < loops_.size(); ++k) {
    bool shared = (level == 0) || (static_cast<int>(k) < level - 1);
    if (shared) {
      addBounds(tvar(static_cast<int>(k), true, true), static_cast<int>(k));
    } else {
      addBounds(tvar(static_cast<int>(k), false, true), static_cast<int>(k));
      addBounds(tvar(static_cast<int>(k), false, false),
                static_cast<int>(k));
    }
  }
  // Carrier direction: destination iteration strictly later.
  if (level > 0) {
    const LoopContext& lc = loops_[static_cast<std::size_t>(level - 1)];
    if (lc.step != 0) {
      LinearExpr dir;
      dir.coef[tvar(level - 1, false, false)] = 1;
      dir.coef[tvar(level - 1, false, true)] = -1;
      cs.push_back(Constraint::gt0(dir));
    }
  }
  for (const Fact& f : facts_) {
    cs.push_back(f.strict ? Constraint::gt0(f.expr)
                          : Constraint::ge0(f.expr));
  }

  ++stats_.fmRuns;
  FourierMotzkin fm(std::move(cs),
                    FmBudget{budget_.fmMaxConstraints,
                             budget_.fmMaxEliminations});
  if (fm.degraded()) {
    ++stats_.fmDegraded;
    if (degraded) *degraded = true;
  }
  if (fm.infeasible()) {
    ++stats_.fmDisproofs;
    return true;
  }
  return false;
}

LevelResult DependenceTester::testSection(
    const Expr& ref, const std::map<std::string, LinearExpr>& refSub,
    const Section& section, const std::map<std::string, LinearExpr>& callSub,
    int level, bool callIsSrc) {
  ++stats_.testsRequested;
  LevelResult result;
  std::vector<Constraint> cs;
  std::size_t dims = std::min(ref.args.size(), section.dims.size());
  bool anyConstraint = false;
  for (std::size_t d = 0; d < dims; ++d) {
    if (!section.dims[d]) continue;  // whole extent: no constraint
    const SectionDim& sd = *section.dims[d];
    if (!sd.lo || !sd.hi) continue;
    LinearExpr fr = tagged(*ref.args[d], refSub, level, !callIsSrc);
    LinearExpr lo =
        tagForm(linearizeSubscript(*sd.lo, callSub, opaques_,
                                   budget_.maxSubscriptNodes),
                level, callIsSrc);
    LinearExpr hi =
        tagForm(linearizeSubscript(*sd.hi, callSub, opaques_,
                                   budget_.maxSubscriptNodes),
                level, callIsSrc);
    // Overlap requires lo <= ref-subscript <= hi.
    LinearExpr above = fr;
    above.add(lo, -1);
    cs.push_back(Constraint::ge0(std::move(above)));
    LinearExpr below = hi;
    below.add(fr, -1);
    cs.push_back(Constraint::ge0(std::move(below)));
    anyConstraint = true;
  }
  if (!anyConstraint) {
    ++stats_.assumed;
    return result;  // nothing to disprove with
  }
  MemoKey key;
  if (memo_) {
    std::vector<LinearExpr> forms;
    forms.reserve(cs.size());
    for (const Constraint& c : cs) forms.push_back(c.expr);
    key = makeKey('s', level, callIsSrc ? 1 : 0, forms);
    if (std::optional<LevelResult> hit = memo_->lookup(key)) {
      ++stats_.memoHits;
      return *hit;
    }
    ++stats_.memoMisses;
  }
  bool fmDegraded = false;
  for (const Constraint& c : cs) fmDegraded |= c.expr.degraded;
  if (finishFm(std::move(cs), level, &fmDegraded)) {
    result.answer = DepAnswer::NoDependence;
  } else {
    ++stats_.assumed;
    if (fmDegraded) {
      result.degraded = true;
      ++stats_.degradedAnswers;
    }
  }
  if (memo_) memo_->insert(key, result);
  return result;
}

LevelResult DependenceTester::testSections(
    const Section& a, const std::map<std::string, LinearExpr>& aSub,
    const Section& b, const std::map<std::string, LinearExpr>& bSub,
    int level) {
  ++stats_.testsRequested;
  LevelResult result;
  std::vector<Constraint> cs;
  std::size_t dims = std::min(a.dims.size(), b.dims.size());
  bool anyConstraint = false;
  for (std::size_t d = 0; d < dims; ++d) {
    if (!a.dims[d] || !b.dims[d]) continue;
    const SectionDim& da = *a.dims[d];
    const SectionDim& db = *b.dims[d];
    if (!da.lo || !da.hi || !db.lo || !db.hi) continue;
    // Overlap in this dimension: a.lo <= x <= a.hi and b.lo <= x <= b.hi
    // for some x — i.e. a.lo <= b.hi and b.lo <= a.hi.
    const std::size_t cap = budget_.maxSubscriptNodes;
    LinearExpr alo = tagForm(linearizeSubscript(*da.lo, aSub, opaques_, cap),
                             level, true);
    LinearExpr ahi = tagForm(linearizeSubscript(*da.hi, aSub, opaques_, cap),
                             level, true);
    LinearExpr blo = tagForm(linearizeSubscript(*db.lo, bSub, opaques_, cap),
                             level, false);
    LinearExpr bhi = tagForm(linearizeSubscript(*db.hi, bSub, opaques_, cap),
                             level, false);
    LinearExpr c1 = bhi;
    c1.add(alo, -1);
    cs.push_back(Constraint::ge0(std::move(c1)));
    LinearExpr c2 = ahi;
    c2.add(blo, -1);
    cs.push_back(Constraint::ge0(std::move(c2)));
    anyConstraint = true;
  }
  if (!anyConstraint) {
    ++stats_.assumed;
    return result;
  }
  MemoKey key;
  if (memo_) {
    std::vector<LinearExpr> forms;
    forms.reserve(cs.size());
    for (const Constraint& c : cs) forms.push_back(c.expr);
    key = makeKey('b', level, 0, forms);
    if (std::optional<LevelResult> hit = memo_->lookup(key)) {
      ++stats_.memoHits;
      return *hit;
    }
    ++stats_.memoMisses;
  }
  bool fmDegraded = false;
  for (const Constraint& c : cs) fmDegraded |= c.expr.degraded;
  if (finishFm(std::move(cs), level, &fmDegraded)) {
    result.answer = DepAnswer::NoDependence;
  } else {
    ++stats_.assumed;
    if (fmDegraded) {
      result.degraded = true;
      ++stats_.degradedAnswers;
    }
  }
  if (memo_) memo_->insert(key, result);
  return result;
}

}  // namespace ps::dep
