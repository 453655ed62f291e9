/**
 * @file
 * Test helper: send a ResultSet through the engine's one results
 * reader. Every point is written as a JSONL record and the stream is
 * parsed back, so a test can assert field by field what survives.
 */

#ifndef NETAFFINITY_TESTS_JSONL_ROUNDTRIP_HH
#define NETAFFINITY_TESTS_JSONL_ROUNDTRIP_HH

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/core/results_jsonl.hh"

namespace na::test {

/**
 * @return the records of @p rs after a JSONL write and read, in
 *         submission order (point i is written with key i + 1).
 */
inline std::vector<core::JsonRunRecord>
jsonlRoundTrip(const core::ResultSet &rs)
{
    std::stringstream ss;
    for (std::size_t i = 0; i < rs.size(); ++i)
        core::writeJsonlRecord(ss, rs.point(i), rs.result(i), i + 1);
    const core::JsonlFile file = core::readResultsJsonl(ss);
    EXPECT_FALSE(file.truncatedTail);
    std::vector<core::JsonRunRecord> records;
    for (const core::JsonlRecord &r : file.records)
        records.push_back(r.rec);
    return records;
}

} // namespace na::test

#endif // NETAFFINITY_TESTS_JSONL_ROUNDTRIP_HH
