/**
 * @file
 * MPlayer model.
 *
 * Per the paper (Section 6.3): "Mplayer loads the movie into its own
 * memory buffer and maintains the buffer full until the movie ends.
 * At this time the I/O activity stops and the movie finishes playing
 * from the buffer" — the idle energy corresponds to draining the
 * 8 MB buffer at the end. One execution:
 *
 *   - pick a clip from the user's small library (fixed length per
 *     clip, so the refill count — and hence the cumulative path
 *     signature at the drain — is stable per clip and learnable);
 *   - initial 8 MB buffer fill, then periodic refills every ~4 s:
 *     idle gaps above the wait-window but below breakeven, which
 *     keep the disk spinning and fill the idle history with zeros;
 *   - sometimes the user pauses the movie (a control-file touch
 *     followed by a long idle period);
 *   - the end-of-movie drain: the last refill is followed by the
 *     ~32 s it takes to play out the buffer, then the config write
 *     and exit;
 *   - a GUI/demux front-end process with a handful of sparse
 *     accesses (index at start, subtitles mid-movie).
 */

#include "workload/apps.hpp"

#include "workload/actor.hpp"

namespace pcap::workload {

namespace {

constexpr Address kBase = 0x08500000;
constexpr Address kPcOpenMovie = kBase + 0x010;
constexpr Address kPcFillBuf = kBase + 0x020;
constexpr Address kPcRefill = kBase + 0x030;
constexpr Address kPcControl = kBase + 0x040;
constexpr Address kPcResync = kBase + 0x050;
constexpr Address kPcConfig = kBase + 0x060;
constexpr Address kPcIndex = kBase + 0x070;
constexpr Address kPcSubs = kBase + 0x080;
constexpr Address kPcFooter = kBase + 0x090;

constexpr FileId kMovieBase = 7000;
constexpr FileId kControlFile = 7100;
constexpr FileId kConfigFile = 7101;
constexpr FileId kIndexFile = 7200;
constexpr FileId kSubsFile = 7201;

constexpr Pid kMainPid = 600;
constexpr Pid kFrontendPid = 601;

constexpr int kClipCount = 6;
constexpr std::uint32_t kFillBytes = 8 * 1024 * 1024;
constexpr std::uint32_t kRefillBytes = 1024 * 1024;
/** ~250 KB/s stream: one 1 MB refill roughly every four seconds. */
constexpr double kDrainSeconds = 40.0;

/** Refills in clip c: fixed per clip so the drain path is stable. */
int
clipRefills(int clip)
{
    return 18 + clip * 11; // 18 .. 73 refills (~1.5 .. 5.5 minutes)
}

class MplayerModel : public AppModel
{
  public:
    MplayerModel()
        : info_{"mplayer", 31,
                "media player; sub-breakeven refills, user pauses, "
                "end-of-movie buffer drain"}
    {
    }

    const AppInfo &info() const override { return info_; }

    trace::Trace
    generate(int execution, Rng rng,
             std::vector<trace::TraceEvent> storage) const override
    {
        trace::TraceBuilder builder(info_.name, execution, kMainPid,
                                    std::move(storage));
        Actor main(builder, rng.fork(1), kMainPid, millisUs(50));
        main.setIntraGap(millisUs(2));

        const int clip =
            static_cast<int>(main.rng().uniformInt(0,
                                                   kClipCount - 1));
        const FileId movie = kMovieBase + clip;

        main.fork(kFrontendPid);
        Actor frontend(builder, rng.fork(2), kFrontendPid,
                       main.now());
        frontend.setIntraGap(millisUs(4));

        // --- Open the movie and fill the 8 MB buffer; the front-end
        // reads the seek index meanwhile.
        main.open(kPcOpenMovie, 3, movie);
        std::uint64_t offset =
            main.readFile(kPcFillBuf, 3, movie, 0, kFillBytes, 4096);
        frontend.advanceTo(main.now() / 2);
        frontend.readFile(kPcIndex, 4, kIndexFile, 0, 24 * 1024,
                          4096);

        // --- Playback: periodic refills below the breakeven time.
        const int refills = clipRefills(clip);
        const bool pauses = main.rng().chance(0.4);
        const int pause_at =
            pauses ? static_cast<int>(
                         main.rng().uniformInt(3, refills - 3))
                   : -1;
        const int subs_at = static_cast<int>(
            main.rng().uniformInt(2, refills - 2));

        for (int refill = 0; refill < refills; ++refill) {
            main.pauseBetween(millisUs(3400), millisUs(4600));
            offset = main.readFile(kPcRefill, 3, movie, offset,
                                   kRefillBytes, 4096);

            if (refill == subs_at) {
                // Subtitles load while the disk is up anyway.
                frontend.advanceTo(main.now() + millisUs(120));
                frontend.readFile(kPcSubs, 5, kSubsFile, 0,
                                  16 * 1024, 4096);
            }

            if (refill == pause_at) {
                // The user pauses: mplayer touches its control file,
                // then nothing happens for a while; playback resumes
                // with a resync read.
                main.op(trace::EventType::Read, kPcControl, 6,
                        kControlFile, 0, 4096);
                main.pause(secondsUs(main.rng().uniformReal(25.0,
                                                            150.0)));
                main.readFile(kPcResync, 3, movie, offset, 64 * 1024,
                              4096);
            }
        }

        // --- End of movie: the demuxer hits EOF and reads the
        // container footer/seek table — the distinguishing tail of
        // the drain path — then the buffer drains.
        main.readFile(kPcFooter, 3, movie, offset, 32 * 1024, 4096);
        main.pause(secondsUs(kDrainSeconds));
        main.writeFile(kPcConfig, 7, kConfigFile, 0, 4 * 1024, 4096);

        const TimeUs last =
            main.now() > frontend.now() ? main.now() : frontend.now();
        return builder.finish(last + millisUs(400));
    }

  private:
    AppInfo info_;
};

} // namespace

std::unique_ptr<AppModel>
makeMplayer()
{
    return std::make_unique<MplayerModel>();
}

} // namespace pcap::workload
