// Wall-clock stopwatch for engine statistics and timing tests.
#pragma once

#include <chrono>

namespace autosva::util {

class Stopwatch {
public:
    Stopwatch() : start_(Clock::now()) {}

    void reset() { start_ = Clock::now(); }

    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }
    [[nodiscard]] double millis() const { return seconds() * 1e3; }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

} // namespace autosva::util
