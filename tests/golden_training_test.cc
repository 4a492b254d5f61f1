// Golden-output pins for the offline training pass. Pins the FNV-1a digest of
// the SaveTrainedModels bytes of OfflineTrainer::Train(TrainConfig::Tiny())
// and of the BuildSnippetData accuracy labels, each at 1 and 4 threads against
// the same pin.
//
// The training kernels (MLP forward/backward, the AP evaluator behind every
// label, the snippet label loop) may be rewritten for speed, but every output
// byte must stay as it is: a digest change means a trained weight or a label
// moved. Suite names carry GoldenTraining so the TSan CI job picks them up.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "src/pipeline/serialize.h"
#include "src/pipeline/trainer.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

constexpr int kThreadCounts[] = {1, 4};

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string Hex(uint64_t digest) {
  return StrFormat("0x%016llx", static_cast<unsigned long long>(digest));
}

// Runs `fn` with the given parallelism. threads=1 runs it inside a
// one-participant parallel region, so every nested ParallelFor/ParallelMap of
// the trainer runs inline on this thread; otherwise the trainer fans out over
// the shared pool.
void RunAtThreads(int threads, const std::function<void()>& fn) {
  SetDefaultThreadCount(threads);
  if (threads == 1) {
    ThreadPool::Shared().ParallelFor(
        1, [&](size_t) { fn(); }, /*max_parallelism=*/1);
  } else {
    fn();
  }
  SetDefaultThreadCount(0);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(GoldenTrainingTest, TinyModelBundleBytes) {
  constexpr uint64_t kDigest = 0x08dd69836194ef94ull;
  const TrainConfig config = TrainConfig::Tiny();
  for (int threads : kThreadCounts) {
    std::string path = (std::filesystem::temp_directory_path() /
                        ("lrc_golden_training_" + std::to_string(threads) + ".bin"))
                           .string();
    RunAtThreads(threads, [&] {
      TrainedModels models = OfflineTrainer::Train(config, BranchSpace::Default());
      ASSERT_TRUE(SaveTrainedModels(models, config.Fingerprint(), path));
    });
    std::string bytes = ReadFile(path);
    std::filesystem::remove(path);
    EXPECT_FALSE(bytes.empty());
    EXPECT_EQ(Hex(Fnv1a(bytes)), Hex(kDigest)) << "threads=" << threads;
  }
}

TEST(GoldenTrainingTest, TinySnippetLabels) {
  constexpr uint64_t kDigest = 0x7529d29e5583ec25ull;
  const TrainConfig config = TrainConfig::Tiny();
  for (int threads : kThreadCounts) {
    std::vector<SnippetData> data;
    RunAtThreads(threads, [&] {
      data = OfflineTrainer::BuildSnippetData(config, BranchSpace::Default(),
                                              TinyTrain());
    });
    ASSERT_FALSE(data.empty());
    std::string bytes;
    for (const SnippetData& row : data) {
      ASSERT_EQ(row.labels.size(), BranchSpace::Default().size());
      bytes.append(reinterpret_cast<const char*>(row.labels.data()),
                   row.labels.size() * sizeof(double));
    }
    EXPECT_EQ(Hex(Fnv1a(bytes)), Hex(kDigest)) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace litereconfig
