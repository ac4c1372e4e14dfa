#include "gen.h"

#include <algorithm>
#include <random>

namespace psbench {

namespace {

using Rng = std::mt19937;

int draw(Rng& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

bool coin(Rng& rng, double p) {
  return std::bernoulli_distribution(p)(rng);
}

const char* coef(Rng& rng) {
  static const char* const kCoefs[] = {"0.25", "0.5",  "0.75", "0.125",
                                       "1.5",  "0.9",  "2.0",  "0.05"};
  return kCoefs[draw(rng, 0, 7)];
}

/// Fixed-form writer for one program unit. Tracks the pre-order loop
/// ordinal so planted truth can name loops the way Session::loops() does.
class Unit {
 public:
  explicit Unit(std::string name) : name_(std::move(name)) {}

  void stmt(const std::string& text) {
    lines_.push_back(std::string(6 + 2 * depth_, ' ') + text);
  }
  void labeled(int label, const std::string& text) {
    std::string lab = std::to_string(label);
    lines_.push_back(std::string(5 - lab.size(), ' ') + lab + ' ' +
                     std::string(2 * depth_, ' ') + text);
  }
  /// "DO label header"; returns the loop's pre-order ordinal.
  int open(int label, const std::string& header) {
    stmt("DO " + std::to_string(label) + ' ' + header);
    ++depth_;
    return loops_++;
  }
  void close(int label) {
    --depth_;
    labeled(label, "CONTINUE");
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<std::string>& lines() const {
    return lines_;
  }

 private:
  std::string name_;
  std::vector<std::string> lines_;
  int depth_ = 0;
  int loops_ = 0;
};

class Builder {
 public:
  Builder(unsigned seed, int keyRange) : rng_(seed), range_(keyRange) {}

  void module(int m);
  std::vector<Unit> units;
  std::vector<PlantedLoop> truth;

 private:
  void plant(const Unit& u, int ordinal, bool carried, const char* pattern) {
    truth.push_back({u.name(), ordinal, carried, pattern});
  }
  /// Loop bounds "lo, <upper> - hi" drawn from the key range: the pair
  /// enters the dependence-test memo key. lo stays below 24 + base and hi
  /// below range/24 + 1, so every planted recurrence keeps iterations.
  std::string bounds(int base, const std::string& upper, int minus = 0) {
    const int q = draw(rng_, 0, range_ - 1);
    const int hi = minus + q / 24;
    return std::to_string(base + q % 24) + ", " + upper +
           (hi > 0 ? " - " + std::to_string(hi) : "");
  }

  Rng rng_;
  int range_;
};

void Builder::module(int m) {
  const std::string id = std::to_string(m);
  const std::string common = "COMMON /CM" + id + "/ NL" + id + ", SUM" + id;
  const bool callCarried = coin(rng_, 0.3);
  // Scatter offsets I3 + a and I3 + a + 1; the index-array stride exceeds
  // a + 1, so different iterations never touch the same element.
  const int scatter = draw(rng_, 1, 6);
  const int stride = scatter + 1 + draw(rng_, 1, 2);

  // --- DRV: local arrays, initialization, the small-trip call loop and
  // one call per kernel pattern.
  Unit drv("DRV" + id);
  drv.stmt("SUBROUTINE DRV" + id);
  drv.stmt("COMMON /GSIZE/ NX, NY");
  drv.stmt(common);
  drv.stmt("REAL A(64, 8), B(64, 8), C(1024), F(512), X(512)");
  drv.stmt("REAL Y(64, 16), D(64), E(64)");
  drv.stmt("INTEGER IT(48)");
  drv.stmt("NL" + id + " = " + std::to_string(draw(rng_, 3, 6)));
  int o = drv.open(10, "L = 1, " + std::to_string(draw(rng_, 5, 8)));
  plant(drv, o, false, "init");
  o = drv.open(11, "I = " + bounds(1, "64"));
  plant(drv, o, false, "init");
  drv.stmt("A(I, L) = FLOAT(I + L)*" + std::string(coef(rng_)));
  drv.stmt("B(I, L) = FLOAT(I)*" + std::string(coef(rng_)));
  drv.close(11);
  drv.close(10);
  o = drv.open(12, "N = " + bounds(1, "48"));
  plant(drv, o, false, "init");
  drv.stmt("IT(N) = " + std::to_string(stride) + "*N - " +
           std::to_string(stride - 1));
  drv.close(12);
  o = drv.open(13, "I = " + bounds(1, "512"));
  plant(drv, o, false, "init");
  drv.stmt("F(I) = 0.0");
  drv.stmt("X(I) = FLOAT(I)*" + std::string(coef(rng_)));
  drv.close(13);
  o = drv.open(14, "I = " + bounds(1, "64"));
  plant(drv, o, false, "init");
  drv.stmt("D(I) = FLOAT(I) - " + std::to_string(draw(rng_, 8, 40)) + ".0");
  drv.stmt("E(I) = 0.0");
  drv.close(14);
  o = drv.open(20, std::string("L = ") + (callCarried ? "2" : "1") + ", NL" +
                       id);
  plant(drv, o, callCarried, "small-trip-call");
  drv.stmt("CALL COL" + id + "(A, B, NX, L)");
  drv.close(20);
  drv.stmt("CALL LIN" + id + "(C, NX, NY)");
  drv.stmt("CALL SCT" + id + "(F, X, IT, 48)");
  drv.stmt("CALL TMP" + id + "(Y, X, NX, NY)");
  drv.stmt("CALL RED" + id + "(X, NX)");
  drv.stmt("CALL AIF" + id + "(D, E, NX)");
  drv.stmt("END");
  units.push_back(std::move(drv));

  // --- COL: the middle of the call chain, invoked once per column L.
  Unit col("COL" + id);
  col.stmt("SUBROUTINE COL" + id + "(A, B, N, L)");
  col.stmt("REAL A(64, 8), B(64, 8)");
  col.stmt("CALL CLA" + id + "(A, B, N, L)");
  col.stmt("CALL CLB" + id + "(A, N, L)");
  col.stmt("END");
  units.push_back(std::move(col));

  // --- CLA: column update; reads column L-1 when the call loop carries.
  Unit cla("CLA" + id);
  cla.stmt("SUBROUTINE CLA" + id + "(A, B, N, L)");
  cla.stmt("REAL A(64, 8), B(64, 8)");
  o = cla.open(30, "I = " + bounds(1, "N", 3));
  plant(cla, o, false, "column");
  const int shift = draw(rng_, 0, 3);
  const std::string c1 = coef(rng_);
  const std::string c2 = coef(rng_);
  cla.stmt("A(I, L) = B(I + " + std::to_string(shift) + ", L)*" + c1 +
           (callCarried ? " + A(I, L - 1)*" : " + ") + c2);
  cla.close(30);
  cla.stmt("END");
  units.push_back(std::move(cla));

  // --- CLB: in-column recurrence of seeded distance, or an in-place
  // update.
  Unit clb("CLB" + id);
  clb.stmt("SUBROUTINE CLB" + id + "(A, N, L)");
  clb.stmt("REAL A(64, 8)");
  if (coin(rng_, 0.5)) {
    const int k = draw(rng_, 1, 3);
    o = clb.open(40, "I = " + bounds(1 + k, "N"));
    plant(clb, o, true, "recurrence");
    const std::string c1 = coef(rng_);
    const std::string c2 = coef(rng_);
    clb.stmt("A(I, L) = A(I - " + std::to_string(k) + ", L)*" + c1 + " + " +
             c2);
  } else {
    o = clb.open(40, "I = " + bounds(1, "N"));
    plant(clb, o, false, "in-place");
    const std::string c1 = coef(rng_);
    const std::string c2 = coef(rng_);
    clb.stmt("A(I, L) = A(I, L)*" + c1 + " + FLOAT(I)*" + c2);
  }
  clb.close(40);
  clb.stmt("END");
  units.push_back(std::move(clb));

  // --- LIN: linearized 2-D neighbours, (J - 1)*N + I addressing.
  Unit lin("LIN" + id);
  lin.stmt("SUBROUTINE LIN" + id + "(C, N, M)");
  lin.stmt("REAL C(1024)");
  const int shape = draw(rng_, 0, 2);
  const std::string at = "(J - 1)*N + I";
  std::string read;
  bool jCarried = false;
  bool iCarried = false;
  switch (shape) {
    case 0:
      read = at;  // in place
      break;
    case 1:
      read = at + " + N";  // the next row: the J loop carries an anti dep
      jCarried = true;
      break;
    default:
      read = at + " - 1";  // left neighbour: the I loop carries a flow dep
      iCarried = true;
      break;
  }
  o = lin.open(50, "J = " + std::to_string(draw(rng_, 2, 4)) + ", M - 1");
  plant(lin, o, jCarried, "linearized");
  o = lin.open(51, "I = " + bounds(2, "N", 1));
  plant(lin, o, iCarried, "linearized");
  const std::string l1 = coef(rng_);
  const std::string l2 = coef(rng_);
  lin.stmt("C(" + at + ") = C(" + read + ")*" + l1 + " + " + l2);
  lin.close(51);
  lin.close(50);
  lin.stmt("END");
  units.push_back(std::move(lin));

  // --- SCT: force scatter through a strided index table (dpmin §4.3).
  // IT(N) = stride*N - (stride-1) with stride > scatter + 1, so the
  // scattered elements of different iterations never meet: truly
  // parallel, but only an assertion could tell the analyzer.
  Unit sct("SCT" + id);
  sct.stmt("SUBROUTINE SCT" + id + "(F, X, IT, NB)");
  sct.stmt("REAL F(512), X(512)");
  sct.stmt("INTEGER IT(NB)");
  o = sct.open(60, "N = " + bounds(1, "NB"));
  plant(sct, o, false, "index-scatter");
  sct.stmt("I3 = IT(N)");
  sct.stmt("DT = X(I3)*" + std::string(coef(rng_)));
  const std::string a1 = "I3 + " + std::to_string(scatter);
  const std::string a2 = "I3 + " + std::to_string(scatter + 1);
  sct.stmt("F(" + a1 + ") = F(" + a1 + ") - DT");
  sct.stmt("F(" + a2 + ") = F(" + a2 + ") - DT*" + std::string(coef(rng_)));
  sct.close(60);
  sct.stmt("END");
  units.push_back(std::move(sct));

  // --- TMP: a scalar temporary killed every iteration (privatizable).
  Unit tmp("TMP" + id);
  tmp.stmt("SUBROUTINE TMP" + id + "(Y, X, N, M)");
  tmp.stmt("REAL Y(64, 16), X(512)");
  o = tmp.open(70, "J = " + std::to_string(draw(rng_, 1, 4)) + ", M");
  plant(tmp, o, false, "private-temp");
  o = tmp.open(71, "I = " + bounds(1, "N"));
  plant(tmp, o, false, "private-temp");
  tmp.stmt("T = X(I + J)*" + std::string(coef(rng_)));
  tmp.stmt("Y(I, J) = T*T*" + std::string(coef(rng_)));
  tmp.close(71);
  tmp.close(70);
  tmp.stmt("END");
  units.push_back(std::move(tmp));

  // --- RED: sum reduction into a COMMON scalar.
  Unit red("RED" + id);
  red.stmt("SUBROUTINE RED" + id + "(X, N)");
  red.stmt(common);
  red.stmt("REAL X(512)");
  red.stmt("S = 0.0");
  o = red.open(80, "I = " + bounds(1, "N"));
  plant(red, o, true, "sum-reduction");
  red.stmt("S = S + X(I)*X(I)*" + std::string(coef(rng_)));
  red.close(80);
  red.stmt("SUM" + id + " = S");
  red.stmt("END");
  units.push_back(std::move(red));

  // --- AIF: the neoss arithmetic-IF if-then-else built from GOTOs, with
  // an optional carried read of the previous element.
  const bool aifCarried = coin(rng_, 0.4);
  Unit aif("AIF" + id);
  aif.stmt("SUBROUTINE AIF" + id + "(D, E, N)");
  aif.stmt("REAL D(64), E(64)");
  o = aif.open(90, "K = " + bounds(2, "N"));
  plant(aif, o, aifCarried, "arithmetic-if");
  aif.stmt("IF (D(K) - " + std::string(coef(rng_)) + ") 92, 91, 91");
  aif.labeled(91, "CONTINUE");
  aif.stmt("D(K) = D(K)*" + std::string(coef(rng_)));
  aif.stmt("GOTO 93");
  aif.labeled(92, "D(K) = 0.0");
  aif.labeled(93, aifCarried ? "E(K) = D(K) + E(K - 1)" : "E(K) = D(K)");
  aif.close(90);
  aif.stmt("END");
  units.push_back(std::move(aif));
}

/// Source lines one module takes, used only to size the key range before
/// generation starts.
constexpr int kLinesPerModuleEstimate = 96;
constexpr int kMainLines = 6;

}  // namespace

GeneratedDeck generateDeck(unsigned seed, int lines) {
  const int modulesEstimate =
      std::max(1, (lines - kMainLines) / kLinesPerModuleEstimate);
  // Structural draws from a range of twice the module count keep the cold
  // memo hit ratio near the paper corpus's, at any deck size.
  const int keyRange = std::max(2, modulesEstimate * 2);
  Builder b(seed, keyRange);

  GeneratedDeck deck;
  int total = kMainLines;
  std::vector<std::string> calls;
  while (total < lines || deck.modules == 0) {
    const std::size_t first = b.units.size();
    b.module(deck.modules);
    for (std::size_t i = first; i < b.units.size(); ++i) {
      total += static_cast<int>(b.units[i].lines().size()) + 1;
    }
    calls.push_back("CALL DRV" + std::to_string(deck.modules));
    ++deck.modules;
  }
  total += static_cast<int>(calls.size());

  Unit main("GENDK");
  main.stmt("PROGRAM GENDK");
  main.stmt("COMMON /GSIZE/ NX, NY");
  main.stmt("NX = 64");
  main.stmt("NY = 16");
  for (const std::string& c : calls) main.stmt(c);
  main.stmt("END");

  std::string& src = deck.source;
  src += '\n';
  for (const std::string& l : main.lines()) src += l + '\n';
  for (const Unit& u : b.units) {
    src += '\n';
    for (const std::string& l : u.lines()) src += l + '\n';
  }
  deck.lines = total;
  deck.procedures = static_cast<int>(b.units.size()) + 1;
  deck.truth = std::move(b.truth);
  return deck;
}

}  // namespace psbench
