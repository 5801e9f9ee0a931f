// Per-test scratch paths for tests that write files.
//
// gtest_discover_tests runs every TEST as its own process, and `ctest -j`
// runs those processes concurrently.  A fixed name under
// ::testing::TempDir() is therefore shared by every test that uses it: one
// test truncates or deletes the file while another is reading it.
// scratchPath() folds the running test's suite and name plus the process id
// into the file name, so no two test processes ever share a path.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <string>

namespace dynet::testutil {

/// ::testing::TempDir() + "<suite>.<test>.<pid>.<name>", with every
/// character of the suite and test names outside [A-Za-z0-9_.] replaced by
/// '_' (parameterized names carry '/').  Outside a running test the
/// suite/test part reads "global".
inline std::string scratchPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? std::string("global")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  for (char& c : test) {
    if (c != '.' && c != '_' &&
        std::isalnum(static_cast<unsigned char>(c)) == 0) {
      c = '_';
    }
  }
  return ::testing::TempDir() + test + "." + std::to_string(::getpid()) + "." +
         name;
}

}  // namespace dynet::testutil
