// Bit-parity of the fused micro-op kernel path against the reference
// interpreter. The fused path changes *scheduling only* — lowering, block
// execution, persistent arena workers — never any per-task FP sequence, so
// every configuration below must reproduce the interpreter's output
// bit-for-bit: across a program fuzz (whatever the mutator emits), across
// {1, 4, 8} threads x {1, 16, 257} shard sizes, across block sizes, with
// CounterRng random-init ops, with relation ops splitting segments, and
// with the input refresh filling only the m0 cells a program reads.
// The blocked matmul kernels get the same treatment against naive loops.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/executor.h"
#include "core/fused.h"
#include "core/generators.h"
#include "core/kernels.h"
#include "core/mutator.h"
#include "market/simulator.h"
#include "util/rng.h"

namespace alphaevolve::core {
namespace {

Instruction I(Op op, int out, int in1 = 0, int in2 = 0) {
  Instruction ins;
  ins.op = op;
  ins.out = static_cast<uint8_t>(out);
  ins.in1 = static_cast<uint8_t>(in1);
  ins.in2 = static_cast<uint8_t>(in2);
  return ins;
}

Instruction RandomInit(Op op, int out, double imm0, double imm1) {
  Instruction ins;
  ins.op = op;
  ins.out = static_cast<uint8_t>(out);
  ins.imm0 = imm0;
  ins.imm1 = imm1;
  return ins;
}

/// Exercises every lowering family: random init, matmul/matvec/transpose
/// (aliasing and not), extraction, ts-rank, and all three relation ops
/// splitting the predict component into multiple fused segments.
AlphaProgram MakeStressAlpha(int window) {
  AlphaProgram prog = MakeExpertAlpha(window);
  prog.setup.push_back(RandomInit(Op::kMatrixGaussian, 2, 0.0, 0.1));
  prog.setup.push_back(RandomInit(Op::kVectorUniform, 2, -0.5, 0.5));
  prog.predict.push_back(I(Op::kMatrixMatMul, 2, 2, 1));   // direct
  prog.predict.push_back(I(Op::kMatrixMatMul, 2, 2, 2));   // aliasing
  prog.predict.push_back(I(Op::kMatrixTranspose, 3, 2));   // direct
  prog.predict.push_back(I(Op::kMatrixTranspose, 3, 3));   // aliasing
  prog.predict.push_back(I(Op::kMatrixVectorProduct, 3, 2, 2));
  prog.predict.push_back(I(Op::kVectorMean, 6, 3));
  Instruction rank = I(Op::kRank, 6, 6);
  prog.predict.push_back(rank);
  Instruction rrank = I(Op::kRelationRank, 7, 6);
  rrank.idx0 = 1;  // industry
  prog.predict.push_back(rrank);
  Instruction demean = I(Op::kRelationDemean, 5, 7);
  demean.idx0 = 0;  // sector
  prog.predict.push_back(demean);
  Instruction ts = I(Op::kTsRank, 4, 5);
  ts.idx0 = 6;
  prog.predict.push_back(ts);
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 4, 5));
  return prog;
}

Instruction Const(Op op, int out, double imm0) {
  Instruction ins;
  ins.op = op;
  ins.out = static_cast<uint8_t>(out);
  ins.imm0 = imm0;
  return ins;
}

Instruction GetScalar(int out, int feature, int day) {
  Instruction ins;
  ins.op = Op::kGetScalar;
  ins.out = static_cast<uint8_t>(out);
  ins.idx0 = static_cast<uint8_t>(feature);
  ins.idx1 = static_cast<uint8_t>(day);
  return ins;
}

/// `prog` with m0 written as a matrix at the end of every update, so the
/// refresh writes over a matrix the program produced. With `read_whole`,
/// predict also reads m0 as a matrix (folded into s1), so the fused refresh
/// fills all n² cells; without it, every whole-matrix m0 operand in predict
/// and update is moved to m1, so the refresh fills only the get_* cells.
AlphaProgram WithM0Traffic(AlphaProgram prog, bool read_whole) {
  for (std::vector<Instruction>* component : {&prog.predict, &prog.update}) {
    for (Instruction& ins : *component) {
      const OpInfo& info = GetOpInfo(ins.op);
      if (info.in1 == OperandType::kMatrix && ins.in1 == kInputMatrix) {
        ins.in1 = 1;
      }
      if (info.in2 == OperandType::kMatrix && ins.in2 == kInputMatrix) {
        ins.in2 = 1;
      }
    }
  }
  prog.update.push_back(I(Op::kMatrixAbs, kInputMatrix, 1));
  if (read_whole) {
    prog.predict.push_back(I(Op::kMatrixMean, 9, kInputMatrix));
    prog.predict.push_back(
        I(Op::kScalarAdd, kPredictionScalar, kPredictionScalar, 9));
  }
  return prog;
}

void ExpectBitIdentical(const ExecutionResult& a, const ExecutionResult& b) {
  ASSERT_EQ(a.valid, b.valid);
  // operator== on vector<double> is bitwise equality per element.
  EXPECT_EQ(a.valid_preds, b.valid_preds);
  EXPECT_EQ(a.test_preds, b.test_preds);
}

class FusedParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Large enough that shard size 257 still yields several shards with an
    // uneven tail, with real (uneven) sector/industry structure.
    market::MarketConfig mc = market::MarketConfig::BenchScale();
    mc.num_stocks = 300;
    mc.num_days = 120;
    mc.seed = 31;
    dataset_ = new market::Dataset(
        market::Dataset::Simulate(mc, market::DatasetConfig{}));
    ASSERT_GT(dataset_->num_tasks(), 257);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static ExecutorConfig Interp() {
    ExecutorConfig cfg;
    cfg.fuse_segments = false;
    return cfg;
  }
  static ExecutorConfig Fused(int threads, int shard_size,
                              int block_size = 0) {
    ExecutorConfig cfg;
    cfg.fuse_segments = true;
    cfg.intra_candidate_threads = threads;
    cfg.shard_size = shard_size;
    cfg.block_size = block_size;
    cfg.group_parallel_min_tasks = 1;  // force the concurrent group path
    return cfg;
  }

  static market::Dataset* dataset_;
};

market::Dataset* FusedParityTest::dataset_ = nullptr;

TEST_F(FusedParityTest, ProgramFuzzAcrossThreadsAndShardSizes) {
  // The acceptance matrix: interpreter reference vs fused kernels at
  // {1, 4, 8} threads x {1, 16, 257} shard sizes, over mutated programs.
  Mutator mutator{MutatorConfig{}};
  Rng rng(7);

  Executor reference(*dataset_, Interp());
  std::vector<std::pair<std::string, Executor>> fused;
  fused.emplace_back("fused serial", Executor(*dataset_, Fused(1, 0)));
  for (const int threads : {4, 8}) {
    for (const int shard_size : {1, 16, 257}) {
      fused.emplace_back(
          "fused t" + std::to_string(threads) + " s" +
              std::to_string(shard_size),
          Executor(*dataset_, Fused(threads, shard_size)));
    }
  }
  // The interpreter must also survive the arena (it shares the shard
  // fan-out machinery with the fused path).
  ExecutorConfig interp_sharded = Interp();
  interp_sharded.intra_candidate_threads = 4;
  interp_sharded.shard_size = 16;
  interp_sharded.group_parallel_min_tasks = 1;
  fused.emplace_back("interpreter t4 s16",
                     Executor(*dataset_, interp_sharded));

  AlphaProgram prog = MakeStressAlpha(dataset_->window());
  for (int i = 0; i < 12; ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    const uint64_t seed = 4000 + static_cast<uint64_t>(i);
    const ExecutionResult expect = reference.Run(prog, seed);
    for (auto& [name, executor] : fused) {
      SCOPED_TRACE(name);
      ExpectBitIdentical(executor.Run(prog, seed), expect);
    }
    prog = mutator.Mutate(prog, rng);
  }
}

TEST_F(FusedParityTest, BlockSizeCannotChangeResults) {
  const AlphaProgram prog = MakeStressAlpha(dataset_->window());
  Executor reference(*dataset_, Interp());
  const ExecutionResult expect = reference.Run(prog, 55);
  ASSERT_TRUE(expect.valid);
  for (const int block : {1, 3, 64, 100000}) {
    SCOPED_TRACE("block_size=" + std::to_string(block));
    Executor fused(*dataset_, Fused(4, 16, block));
    ExpectBitIdentical(fused.Run(prog, 55), expect);
  }
}

TEST_F(FusedParityTest, CounterRngDrawsIdenticalAcrossPaths) {
  // A pure random program: the fused path stamps serial draw ids on its
  // micro-ops, the interpreter on its instructions — the streams must line
  // up draw for draw, at any thread count.
  AlphaProgram prog;
  prog.setup.push_back(RandomInit(Op::kMatrixGaussian, 1, 0.0, 1.0));
  prog.predict.push_back(RandomInit(Op::kVectorUniform, 2, -1.0, 1.0));
  prog.predict.push_back(RandomInit(Op::kVectorGaussian, 3, 0.0, 2.0));
  prog.predict.push_back(I(Op::kVectorMean, 3, 2));
  prog.predict.push_back(I(Op::kMatrixMean, 4, 1));
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 3, 4));
  prog.update.push_back(RandomInit(Op::kMatrixUniform, 1, -0.1, 0.1));

  Executor reference(*dataset_, Interp());
  const ExecutionResult expect = reference.Run(prog, 99);
  ASSERT_TRUE(expect.valid);
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Executor fused(*dataset_, Fused(threads, 0));
    ExpectBitIdentical(fused.Run(prog, 99), expect);
  }
  Executor fused(*dataset_, Fused(8, 0));
  const ExecutionResult other_seed = fused.Run(prog, 100);
  ASSERT_TRUE(other_seed.valid);
  EXPECT_NE(other_seed.valid_preds, expect.valid_preds);
}

TEST_F(FusedParityTest, RelationBoundariesBetweenFusedSegments) {
  // Back-to-back relation ops (empty segments between them) and leading /
  // trailing relations: the compiled piece list must preserve program order
  // exactly.
  const int w = dataset_->window();
  AlphaProgram prog;
  prog.setup.push_back(I(Op::kNoOp, 0));
  Instruction get;
  get.op = Op::kGetScalar;
  get.out = 3;
  get.idx0 = 0;
  get.idx1 = static_cast<uint8_t>(w - 1);
  prog.predict.push_back(get);
  prog.predict.push_back(I(Op::kRank, 4, 3));
  Instruction rr = I(Op::kRelationRank, 5, 4);
  rr.idx0 = 1;
  prog.predict.push_back(rr);  // relation directly after relation
  Instruction dm = I(Op::kRelationDemean, 6, 5);
  dm.idx0 = 0;
  prog.predict.push_back(dm);
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 6, 4));
  prog.predict.push_back(I(Op::kRank, kPredictionScalar, kPredictionScalar));
  prog.update.push_back(I(Op::kNoOp, 0));

  Executor reference(*dataset_, Interp());
  Executor fused(*dataset_, Fused(4, 16));
  ExpectBitIdentical(fused.Run(prog, 11), reference.Run(prog, 11));
}

TEST_F(FusedParityTest, FusedInputRefreshBitIdentical) {
  // The fused path refreshes only the m0 cells predict and update read, and
  // folds that fill into the predict component's first segment; the
  // interpreter keeps the full standalone RefreshInputs as reference. Each
  // shape below must be bit-identical to it, and `cells` pins which refresh
  // shape it runs (n * n = the whole matrix).
  const int w = dataset_->window();
  const int all = w * w;
  struct Case {
    const char* name;
    AlphaProgram prog;
    size_t cells;
  };
  std::vector<Case> cases;

  // A leading element-wise segment that consumes m0 immediately.
  cases.push_back({"segment first", MakeStressAlpha(w), 4});

  // A predict that opens with a relation op: standalone fill first.
  AlphaProgram relation_first;
  relation_first.predict.push_back(I(Op::kRank, 3, kPredictionScalar));
  relation_first.predict.push_back(GetScalar(4, 0, w - 1));
  relation_first.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 3, 4));
  cases.push_back({"relation first", relation_first, 1});

  // An empty predict: only update consumes the refresh.
  AlphaProgram empty_predict;
  empty_predict.update.push_back(GetScalar(4, 0, w - 1));
  empty_predict.update.push_back(
      I(Op::kScalarAdd, kPredictionScalar, 4, kLabelScalar));
  cases.push_back({"empty predict", empty_predict, 1});

  // Setup writes m0; the first refresh overwrites only the listed cells.
  AlphaProgram setup_writes;
  setup_writes.setup.push_back(RandomInit(Op::kMatrixGaussian, 0, 0.0, 1.0));
  setup_writes.setup.push_back(Const(Op::kMatrixConst, 0, 3.5));
  setup_writes.predict.push_back(GetScalar(3, 2, w - 1));
  setup_writes.predict.push_back(GetScalar(4, 5, 0));
  setup_writes.predict.push_back(I(Op::kScalarSub, kPredictionScalar, 3, 4));
  cases.push_back({"setup writes m0", setup_writes, 2});

  // Predict overwrites m0 with a matrix op, then reads cells of the result.
  AlphaProgram predict_writes;
  predict_writes.setup.push_back(RandomInit(Op::kMatrixGaussian, 1, 0.0, 1.0));
  predict_writes.predict.push_back(GetScalar(3, 1, w - 1));
  predict_writes.predict.push_back(I(Op::kMatrixAbs, 0, 1));
  predict_writes.predict.push_back(GetScalar(4, 1, w - 1));
  predict_writes.predict.push_back(GetScalar(5, 7, 3));
  predict_writes.predict.push_back(I(Op::kScalarAdd, 6, 4, 5));
  predict_writes.predict.push_back(I(Op::kScalarMul, kPredictionScalar, 3, 6));
  cases.push_back({"predict writes m0", predict_writes, 2});

  // Update overwrites m0; the next date's predict reads listed cells.
  AlphaProgram update_writes;
  update_writes.predict.push_back(GetScalar(3, 0, w - 1));
  update_writes.predict.push_back(GetScalar(4, 3, w - 2));
  update_writes.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 3, 4));
  update_writes.update.push_back(RandomInit(Op::kMatrixUniform, 1, -1.0, 1.0));
  update_writes.update.push_back(I(Op::kMatrixTranspose, 0, 1));
  cases.push_back({"update writes m0", update_writes, 2});

  // Only update reads m0 as a whole matrix: every cell is refreshed.
  AlphaProgram update_reads_whole;
  update_reads_whole.predict.push_back(GetScalar(3, 0, w - 1));
  update_reads_whole.predict.push_back(
      I(Op::kScalarAdd, kPredictionScalar, 3, 6));
  update_reads_whole.update.push_back(I(Op::kMatrixMean, 6, 0));
  cases.push_back({"update reads m0 whole", update_reads_whole,
                   static_cast<size_t>(all)});

  // get_row / get_column sets, overlapping in one cell.
  AlphaProgram rows_cols;
  Instruction row = I(Op::kGetRow, 2);
  row.idx0 = 3;
  Instruction col = I(Op::kGetColumn, 3);
  col.idx0 = static_cast<uint8_t>(w - 1);
  rows_cols.predict.push_back(row);
  rows_cols.predict.push_back(col);
  rows_cols.predict.push_back(I(Op::kVectorDot, kPredictionScalar, 2, 3));
  cases.push_back({"get_row and get_column", rows_cols,
                   static_cast<size_t>(2 * w - 1)});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<InputCell> cells;
    CollectInputCells(c.prog, w, &cells);
    EXPECT_EQ(cells.size(), c.cells);
    Executor reference(*dataset_, Interp());
    const ExecutionResult expect = reference.Run(c.prog, 77);
    EXPECT_TRUE(expect.valid);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      Executor fused(*dataset_, Fused(threads, 16));
      ExpectBitIdentical(fused.Run(c.prog, 77), expect);
    }
  }
}

TEST_F(FusedParityTest, InputCellsMapWindowToInputMatrix) {
  // Every cell's window offset must name the float that
  // Dataset::FillInputMatrix (the interpreter's full refresh) puts at the
  // cell's m0 offset.
  const int w = dataset_->window();
  AlphaProgram whole;
  whole.predict.push_back(I(Op::kMatrixNorm, kPredictionScalar, 0));
  std::vector<InputCell> cells;
  CollectInputCells(whole, w, &cells);
  ASSERT_EQ(cells.size(), static_cast<size_t>(w * w));
  const int date = dataset_->dates(market::Split::kValid)[0];
  std::vector<double> m0(static_cast<size_t>(w * w));
  for (const int task : {0, dataset_->num_tasks() - 1}) {
    dataset_->FillInputMatrix(task, date, m0.data());
    const float* window = dataset_->FeatureRow(task, date - w + 1);
    for (const InputCell& cell : cells) {
      EXPECT_EQ(m0[static_cast<size_t>(cell.m0)],
                static_cast<double>(window[cell.window]))
          << "m0 offset " << cell.m0;
    }
  }
}

TEST_F(FusedParityTest, KernelVariantParityFuzz) {
  // Every kernel variant that was both compiled in and is runnable on this
  // host must reproduce the interpreter bit-for-bit on the mutated corpus —
  // the SIMD variants vectorize only across independent output elements, so
  // there is no tolerance, ever. Each variant runs the full {1, 4, 8}
  // threads x {1, 16, 257} shard matrix with relations lowered in-plan,
  // plus one barrier-path configuration (relation_in_plan = false) to pin
  // the two relation execution strategies to each other as well.
  Mutator mutator{MutatorConfig{}};
  Rng rng(17);

  Executor reference(*dataset_, Interp());
  std::vector<std::pair<std::string, Executor>> forced;
  for (const KernelVariant v : RunnableKernelVariants()) {
    const std::string vname = KernelVariantName(v);
    for (const int threads : {1, 4, 8}) {
      for (const int shard_size : {1, 16, 257}) {
        ExecutorConfig cfg = Fused(threads, shard_size);
        cfg.kernel_variant = vname;
        forced.emplace_back(vname + " t" + std::to_string(threads) + " s" +
                                std::to_string(shard_size),
                            Executor(*dataset_, cfg));
      }
    }
    ExecutorConfig barrier = Fused(4, 16);
    barrier.kernel_variant = vname;
    barrier.relation_in_plan = false;
    forced.emplace_back(vname + " barrier t4 s16",
                        Executor(*dataset_, barrier));
  }
  ASSERT_GE(forced.size(), 10u);  // scalar always compiles: 9 + 1 minimum

  // MakeStressAlpha keeps all three relation ops in the corpus even when a
  // mutation step rewrites other instructions. Mutants alternate between the
  // two input-refresh shapes (listed cells only, and the whole m0), each
  // with m0 overwritten by a matrix op every training date.
  const int w = dataset_->window();
  AlphaProgram prog = MakeStressAlpha(w);
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    const uint64_t seed = 6000 + static_cast<uint64_t>(i);
    const bool read_whole = i % 2 == 1;
    const AlphaProgram shaped = WithM0Traffic(prog, read_whole);
    std::vector<InputCell> cells;
    CollectInputCells(shaped, w, &cells);
    if (read_whole) {
      EXPECT_EQ(cells.size(), static_cast<size_t>(w * w));
    } else {
      EXPECT_LT(cells.size(), static_cast<size_t>(w * w));
    }
    const ExecutionResult expect = reference.Run(shaped, seed);
    for (auto& [name, executor] : forced) {
      SCOPED_TRACE(name);
      ExpectBitIdentical(executor.Run(shaped, seed), expect);
    }
    prog = mutator.Mutate(prog, rng);
  }
}

TEST_F(FusedParityTest, RelationInPlanMatchesBarrierPath) {
  // Relation-heavy shape: back-to-back relations, a relation opening the
  // predict component, and a trailing relation writing the prediction. The
  // in-plan lowering (gather -> group rank/demean -> scatter inside one
  // arena round) and the PR 4 barrier path must agree with the interpreter
  // bit-for-bit at every fan-out, for every runnable variant.
  AlphaProgram prog;
  prog.predict.push_back(I(Op::kRank, 3, kPredictionScalar));
  Instruction get;
  get.op = Op::kGetScalar;
  get.out = 4;
  get.idx0 = 0;
  get.idx1 = static_cast<uint8_t>(dataset_->window() - 1);
  prog.predict.push_back(get);
  Instruction rr = I(Op::kRelationRank, 5, 4);
  rr.idx0 = 1;
  prog.predict.push_back(rr);
  Instruction dm = I(Op::kRelationDemean, 6, 5);
  dm.idx0 = 0;
  prog.predict.push_back(dm);
  prog.predict.push_back(I(Op::kScalarAdd, kPredictionScalar, 6, 3));
  prog.predict.push_back(I(Op::kRank, kPredictionScalar, kPredictionScalar));

  Executor reference(*dataset_, Interp());
  const ExecutionResult expect = reference.Run(prog, 23);
  ASSERT_TRUE(expect.valid);
  for (const KernelVariant v : RunnableKernelVariants()) {
    for (const int threads : {1, 8}) {
      for (const bool in_plan : {true, false}) {
        SCOPED_TRACE(std::string(KernelVariantName(v)) + " threads=" +
                     std::to_string(threads) +
                     (in_plan ? " in-plan" : " barrier"));
        ExecutorConfig cfg = Fused(threads, 16);
        cfg.kernel_variant = KernelVariantName(v);
        cfg.relation_in_plan = in_plan;
        Executor fused(*dataset_, cfg);
        ExpectBitIdentical(fused.Run(prog, 23), expect);
      }
    }
  }
}

TEST_F(FusedParityTest, ScalarVariantIsDefaultTable) {
  // AE_KERNEL_VARIANT=scalar (here forced through the config, which takes
  // precedence over the env) must reproduce the auto-dispatched results
  // exactly — the variants differ in instruction selection, never in value.
  const AlphaProgram prog = MakeStressAlpha(dataset_->window());
  ExecutorConfig scalar_cfg = Fused(4, 16);
  scalar_cfg.kernel_variant = "scalar";
  Executor scalar_exec(*dataset_, scalar_cfg);
  EXPECT_STREQ(scalar_exec.kernel_variant_name(), "scalar");
  Executor auto_exec(*dataset_, Fused(4, 16));
  ExpectBitIdentical(scalar_exec.Run(prog, 63), auto_exec.Run(prog, 63));
}

TEST_F(FusedParityTest, EnvThreadCountCannotChangeResults) {
  // CI runs ctest under AE_BENCH_THREADS=1 and =4; this turns that into a
  // fused-vs-interpreter invariance check at the env-selected fan-out.
  int env_threads = 4;
  if (const char* env = std::getenv("AE_BENCH_THREADS")) {
    env_threads = std::max(1, std::atoi(env));
  }
  const AlphaProgram prog = MakeStressAlpha(dataset_->window());
  Executor reference(*dataset_, Interp());
  Executor fused(*dataset_, Fused(env_threads, 0));
  ExpectBitIdentical(fused.Run(prog, 42), reference.Run(prog, 42));
}

// ---- the m0 cell set of the fused input refresh ---------------------------

std::vector<int> M0Offsets(const std::vector<InputCell>& cells, int n) {
  std::vector<int> out;
  for (const InputCell& cell : cells) {
    // day j = m0 % n, feature f = m0 / n; the window holds day j's
    // features from j * n.
    EXPECT_EQ(cell.window, (cell.m0 % n) * n + cell.m0 / n);
    out.push_back(cell.m0);
  }
  return out;
}

std::vector<int> AllCells(int n) {
  std::vector<int> out(static_cast<size_t>(n * n));
  for (int c = 0; c < n * n; ++c) out[static_cast<size_t>(c)] = c;
  return out;
}

TEST(InputCellsTest, GetOpsNameExactCells) {
  const int n = 13;
  AlphaProgram prog;
  prog.predict.push_back(GetScalar(3, 2, 12));  // m0[2, 12]
  prog.predict.push_back(GetScalar(4, 2, 12));  // the same cell again
  prog.predict.push_back(GetScalar(5, n + 5, 2 * n));  // clamped: m0[5, 0]
  Instruction row = I(Op::kGetRow, 2);
  row.idx0 = 4;  // m0[4, :]
  prog.update.push_back(row);
  Instruction col = I(Op::kGetColumn, 3);
  col.idx0 = 1;  // m0[:, 1], crossing row 4 at m0[4, 1]
  prog.update.push_back(col);
  // Writing m0, and scalar / vector operands at address 0, read no cell.
  prog.predict.push_back(I(Op::kMatrixAbs, kInputMatrix, 1));
  prog.predict.push_back(I(Op::kScalarAdd, 6, kLabelScalar, 0));
  prog.update.push_back(I(Op::kVectorScale, 2, 0, 0));
  prog.update.push_back(I(Op::kVectorOuter, kInputMatrix, 0, 0));

  std::vector<int> expect = {2 * n + 12, 5 * n};
  for (int j = 0; j < n; ++j) expect.push_back(4 * n + j);
  for (int f = 0; f < n; ++f) {
    if (f != 4) expect.push_back(f * n + 1);
  }
  std::sort(expect.begin(), expect.end());

  std::vector<InputCell> cells;
  CollectInputCells(prog, n, &cells);
  EXPECT_EQ(M0Offsets(cells, n), expect);

  CollectInputCells(AlphaProgram{}, n, &cells);  // reuses the vector
  EXPECT_TRUE(cells.empty());
}

TEST(InputCellsTest, MatrixReadOfM0InPredictOrUpdateListsAllCells) {
  const int n = 13;
  AlphaProgram in_predict;
  in_predict.predict.push_back(GetScalar(3, 0, 0));
  in_predict.predict.push_back(I(Op::kMatrixMean, 4, kInputMatrix));
  AlphaProgram in_update;
  in_update.predict.push_back(GetScalar(3, 0, 0));
  in_update.update.push_back(I(Op::kMatrixAdd, 2, 1, kInputMatrix));  // in2
  AlphaProgram matvec;
  matvec.update.push_back(I(Op::kMatrixVectorProduct, 2, kInputMatrix, 1));

  std::vector<InputCell> cells;
  for (const AlphaProgram* prog : {&in_predict, &in_update, &matvec}) {
    CollectInputCells(*prog, n, &cells);
    EXPECT_EQ(M0Offsets(cells, n), AllCells(n));
  }
}

TEST(InputCellsTest, SetupIsIgnored) {
  // Setup runs before the first refresh, so what it reads of m0 is never a
  // refreshed cell.
  const int n = 13;
  AlphaProgram prog;
  prog.setup.push_back(I(Op::kMatrixMean, 4, kInputMatrix));
  prog.setup.push_back(I(Op::kMatrixTranspose, 2, kInputMatrix));
  prog.predict.push_back(GetScalar(3, 7, 8));
  std::vector<InputCell> cells;
  CollectInputCells(prog, n, &cells);
  EXPECT_EQ(M0Offsets(cells, n), std::vector<int>{7 * n + 8});
}

// ---- blocked dense kernels vs naive reference loops -----------------------

/// True bitwise comparison (vector operator== fails NaN == NaN even when
/// the bit patterns agree, and the poisoned inputs below produce NaNs).
void ExpectSameBits(const std::vector<double>& a,
                    const std::vector<double>& b, int n) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << "n=" << n;
}

TEST(BlockedKernelsTest, MatMulBitIdenticalToNaive) {
  Rng rng(3);
  for (const int n : {1, 2, 3, 4, 5, 7, 8, 13, 16, 31}) {
    std::vector<double> a(static_cast<size_t>(n) * n);
    std::vector<double> b(static_cast<size_t>(n) * n);
    for (double& x : a) x = rng.Gaussian();
    for (double& x : b) x = rng.Gaussian();
    // Poison a few entries: NaN/inf propagation must match too.
    if (n >= 4) {
      a[1] = std::numeric_limits<double>::quiet_NaN();
      b[2] = std::numeric_limits<double>::infinity();
      a[static_cast<size_t>(n)] = -0.0;
    }
    std::vector<double> naive(static_cast<size_t>(n) * n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int q = 0; q < n; ++q) acc += a[i * n + q] * b[q * n + j];
        naive[static_cast<size_t>(i) * n + j] = acc;
      }
    }
    std::vector<double> blocked(static_cast<size_t>(n) * n);
    MatMulBlocked(a.data(), b.data(), blocked.data(), n);
    ExpectSameBits(blocked, naive, n);
  }
}

TEST(BlockedKernelsTest, MatVecBitIdenticalToNaive) {
  Rng rng(5);
  for (const int n : {1, 3, 13, 32}) {
    std::vector<double> a(static_cast<size_t>(n) * n);
    std::vector<double> x(static_cast<size_t>(n));
    for (double& v : a) v = rng.Uniform(-2.0, 2.0);
    for (double& v : x) v = rng.Uniform(-2.0, 2.0);
    std::vector<double> naive(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      double acc = 0.0;
      for (int j = 0; j < n; ++j) acc += a[i * n + j] * x[j];
      naive[static_cast<size_t>(i)] = acc;
    }
    std::vector<double> fast(static_cast<size_t>(n));
    MatVecInOrder(a.data(), x.data(), fast.data(), n);
    ExpectSameBits(fast, naive, n);
  }
}

TEST(BlockedKernelsTest, TransposeExact) {
  Rng rng(9);
  const int n = 13;
  std::vector<double> a(static_cast<size_t>(n) * n);
  for (double& v : a) v = rng.Gaussian();
  std::vector<double> t(static_cast<size_t>(n) * n);
  TransposeInto(a.data(), t.data(), n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(t[static_cast<size_t>(j) * n + i],
                a[static_cast<size_t>(i) * n + j]);
    }
  }
}

}  // namespace
}  // namespace alphaevolve::core
