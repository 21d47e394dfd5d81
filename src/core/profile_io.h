/**
 * @file
 * Plain-text serialization of exploration profiles, so the expensive
 * offline exploration runs once and every benchmark binary can reuse
 * its output — mirroring how a production deployment would persist
 * exploration data between controller restarts.
 */

#ifndef URSA_CORE_PROFILE_IO_H
#define URSA_CORE_PROFILE_IO_H

#include "core/profile.h"
#include "spec/app_spec.h"

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

/**
 * Whether `profile` describes `app`: the same service names in the
 * same order, and every explored level sized for the app's classes.
 */
bool profileMatches(const AppProfile &profile, const spec::AppSpec &app);

} // namespace ursa::core

#endif // URSA_CORE_PROFILE_IO_H
