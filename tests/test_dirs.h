#ifndef MAMMOTH_TESTS_TEST_DIRS_H_
#define MAMMOTH_TESTS_TEST_DIRS_H_

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace mammoth::testutil {

/// `name` under the test temp directory, suffixed with this process's id:
/// two runs of one test binary at once (say, a TSan and an ASan build
/// sharing the default temp directory) then never open, or remove, each
/// other's files.
inline std::string ProcessTempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "_" + std::to_string(::getpid());
}

}  // namespace mammoth::testutil

#endif  // MAMMOTH_TESTS_TEST_DIRS_H_
