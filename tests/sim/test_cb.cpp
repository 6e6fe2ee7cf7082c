#include "ttsim/sim/circular_buffer.hpp"

#include "ttsim/sim/tensix_core.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace ttsim::sim {
namespace {

class CbTest : public ::testing::Test {
 protected:
  CbTest() : storage_(kPageSize * kNumPages), cb_(engine_, storage_.data(), kPageSize, kNumPages) {}

  static constexpr std::uint32_t kPageSize = 64;
  static constexpr std::uint32_t kNumPages = 4;

  Engine engine_;
  std::vector<std::byte> storage_;
  CircularBuffer cb_;
};

TEST_F(CbTest, ProducerConsumerPipelineDeliversInOrder) {
  std::vector<int> received;
  engine_.spawn("producer", [&] {
    for (int i = 0; i < 10; ++i) {
      cb_.reserve_back(1);
      std::memcpy(cb_.write_ptr(), &i, sizeof(i));
      engine_.delay(5);
      cb_.push_back(1);
    }
  });
  engine_.spawn("consumer", [&] {
    for (int i = 0; i < 10; ++i) {
      cb_.wait_front(1);
      int v;
      std::memcpy(&v, cb_.read_ptr(), sizeof(v));
      received.push_back(v);
      engine_.delay(9);
      cb_.pop_front(1);
    }
  });
  engine_.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST_F(CbTest, ProducerBlocksWhenFull) {
  SimTime fourth_push = -1;
  engine_.spawn("producer", [&] {
    for (int i = 0; i < 5; ++i) {
      cb_.reserve_back(1);
      cb_.push_back(1);
      if (i == 4) fourth_push = engine_.now();
    }
  });
  engine_.spawn("consumer", [&] {
    engine_.delay(1000);
    cb_.wait_front(1);
    cb_.pop_front(1);
    cb_.wait_front(4);
    cb_.pop_front(4);
  });
  engine_.run();
  // The 5th push can only happen after the consumer pops at t=1000.
  EXPECT_EQ(fourth_push, 1000);
}

TEST_F(CbTest, ConsumerBlocksUntilCommitted) {
  SimTime got = -1;
  engine_.spawn("consumer", [&] {
    cb_.wait_front(1);
    got = engine_.now();
    cb_.pop_front(1);
  });
  engine_.spawn("producer", [&] {
    engine_.delay(77);
    cb_.reserve_back(1);
    cb_.push_back(1);
  });
  engine_.run();
  EXPECT_EQ(got, 77);
}

TEST_F(CbTest, MultiPageOperations) {
  engine_.spawn("p", [&] {
    cb_.reserve_back(3);
    cb_.push_back(3);
  });
  engine_.spawn("c", [&] {
    cb_.wait_front(3);
    EXPECT_EQ(cb_.pages_available(), 3u);
    cb_.pop_front(3);
    EXPECT_EQ(cb_.pages_available(), 0u);
  });
  engine_.run();
}

TEST_F(CbTest, WritePointerWrapsAround) {
  const std::byte* first_page = nullptr;
  engine_.spawn("p", [&] {
    first_page = cb_.write_ptr();
    for (std::uint32_t i = 0; i < kNumPages; ++i) {
      cb_.reserve_back(1);
      cb_.push_back(1);
    }
  });
  engine_.spawn("c", [&] {
    for (std::uint32_t i = 0; i < kNumPages; ++i) {
      cb_.wait_front(1);
      cb_.pop_front(1);
    }
    // After a full cycle the producer page wraps to the start.
    EXPECT_EQ(cb_.write_ptr(), first_page);
  });
  engine_.run();
}

TEST_F(CbTest, PopWithoutDataThrows) {
  engine_.spawn("c", [&] { cb_.pop_front(1); });
  EXPECT_THROW(engine_.run(), CheckError);
}

TEST_F(CbTest, PushBeyondCapacityThrows) {
  engine_.spawn("p", [&] {
    cb_.reserve_back(4);
    cb_.push_back(4);
    cb_.push_back(1);  // no space
  });
  EXPECT_THROW(engine_.run(), CheckError);
}

TEST_F(CbTest, MorePagesThanCapacityThrows) {
  engine_.spawn("p", [&] { cb_.reserve_back(kNumPages + 1); });
  EXPECT_THROW(engine_.run(), CheckError);
}

TEST_F(CbTest, SetReadPtrAliasesArbitraryMemory) {
  // The paper's Section VI extension: FPU ops consume data in place.
  std::vector<std::byte> local(64, std::byte{0x3C});
  engine_.spawn("p", [&] {
    cb_.reserve_back(1);
    cb_.push_back(1);
  });
  engine_.spawn("c", [&] {
    cb_.wait_front(1);
    cb_.set_read_ptr(local.data());
    EXPECT_EQ(cb_.read_ptr(), local.data());
    cb_.pop_front(1);
    // Override is only valid for the page it was set on.
    EXPECT_FALSE(cb_.has_read_ptr_override());
  });
  engine_.run();
}

TEST_F(CbTest, PipelineOverlapsProducerAndConsumer) {
  // With 4 pages, a slow consumer should never leave the producer idle:
  // total time ~= consumer-bound, not producer+consumer.
  SimTime end = 0;
  engine_.spawn("p", [&] {
    for (int i = 0; i < 20; ++i) {
      cb_.reserve_back(1);
      engine_.delay(10);  // produce cost
      cb_.push_back(1);
    }
  });
  engine_.spawn("c", [&] {
    for (int i = 0; i < 20; ++i) {
      cb_.wait_front(1);
      engine_.delay(30);  // consume cost dominates
      cb_.pop_front(1);
    }
    end = engine_.now();
  });
  engine_.run();
  // Consumer-bound bound: 20*30 = 600 plus the initial fill (10).
  EXPECT_LE(end, 640);
  EXPECT_GE(end, 600);
}

TEST(TensixCoreCb, MissingOrOutOfRangeIdThrowsApiError) {
  Engine engine;
  const GrayskullSpec spec;
  TensixCore core(engine, spec, 7, NocCoord{1, 1});
  core.create_cb(5, 64, 2);
  EXPECT_TRUE(core.has_cb(5));
  EXPECT_NO_THROW(core.cb(5));
  for (const int id : {-1, 0, 31, 32, 40}) {
    EXPECT_FALSE(core.has_cb(id)) << id;
    try {
      core.cb(id);
      FAIL() << "CB " << id << " resolved";
    } catch (const ApiError& e) {
      EXPECT_EQ(std::string(e.what()),
                "CB " + std::to_string(id) + " was not configured on core 7");
    }
  }
  EXPECT_THROW(core.create_cb(-1, 64, 1), CheckError);
  EXPECT_THROW(core.create_cb(32, 64, 1), CheckError);
  EXPECT_THROW(core.create_cb(5, 64, 1), CheckError);  // already exists
  core.reset();
  EXPECT_FALSE(core.has_cb(5));
  EXPECT_THROW(core.cb(5), ApiError);
}

}  // namespace
}  // namespace ttsim::sim
