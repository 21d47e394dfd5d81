/**
 * @file
 * Plain-text serialization of exploration profiles, the way a
 * production deployment would persist exploration data between
 * controller restarts. The pipeline benchmark reads its checked-in
 * profile (perfbench/profiles/) through it, and its --make-profile
 * mode writes one.
 */

#ifndef URSA_CORE_PROFILE_IO_H
#define URSA_CORE_PROFILE_IO_H

#include "core/profile.h"

#include <iosfwd>
#include <string>

namespace ursa::core
{

/** Serialize a profile (versioned, human-readable). */
void saveAppProfile(const AppProfile &profile, std::ostream &out);

/** Save to a file path; returns false on I/O failure. */
bool saveAppProfile(const AppProfile &profile, const std::string &path);

/**
 * Parse a profile written by saveAppProfile. Input is untrusted: every
 * count is bounded before anything is sized from it, every number must
 * be finite, replicas nonnegative, and each latency row either all -1
 * (no data) or nonnegative.
 * @throws std::runtime_error at the first malformed or failed read.
 */
AppProfile loadAppProfile(std::istream &in);

/**
 * Load from a file path.
 * @param ok Set to whether the file existed and parsed.
 */
AppProfile loadAppProfile(const std::string &path, bool &ok);

} // namespace ursa::core

#endif // URSA_CORE_PROFILE_IO_H
