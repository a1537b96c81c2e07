/**
 * @file
 * JSON conversions for the stats primitives.
 *
 * Histograms export their full raw state (Histogram::jsonTransfer) so a
 * parsed histogram answers every query (count, mean, max, percentiles)
 * identically to the one that was dumped.
 */
#pragma once

#include "common/log.h"
#include "stats/histogram.h"
#include "stats/json_archive.h"

namespace bh {

/** Serialize @p h, including enough raw state for an exact round trip. */
inline JsonValue
histogramToJson(const Histogram &h)
{
    JsonWriter w;
    Histogram::jsonTransfer(w, h);
    return w.take();
}

/** Rebuild a histogram dumped by histogramToJson(); fatal when @p v is
 *  malformed (trusted documents only). */
inline Histogram
histogramFromJson(const JsonValue &v)
{
    Histogram h;
    JsonReader r(v);
    Histogram::jsonTransfer(r, h);
    BH_ASSERT(r.ok(), "histogram JSON is malformed");
    return h;
}

} // namespace bh
