// Bait: concurrent state without a thread-safety contract in an
// annotated layer.
#include "base/mutex.h"

#include <atomic>
#include <mutex>

struct Racy
{
    std::mutex rawMu_;            // ursa-lint-test: expect(missing-annotation)
    std::condition_variable cv_;  // ursa-lint-test: expect(missing-annotation)
    ursa::base::Mutex unrefMu_;   // ursa-lint-test: expect(missing-annotation)
    std::atomic<int> counter_{0}; // ursa-lint-test: expect(missing-annotation)
};

// A raw std::mutex is flagged wherever it is spelled, not only as a
// member: as a parameter type and as a guard's template argument.
void
lockRaw(std::mutex &raw) // ursa-lint-test: expect(missing-annotation)
{
    std::lock_guard<std::mutex> lock(raw); // ursa-lint-test: expect(missing-annotation)
}
